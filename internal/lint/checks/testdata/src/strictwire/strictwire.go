// Test fixture for the strictwire analyzer, loaded under an ordinary
// module import path (every package outside internal/wire is in scope).
package sim

import (
	"bytes"
	"encoding/json"

	"rebalance/internal/wire"
)

func rawDecodes(data []byte) error {
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil { // want "raw json.Unmarshal outside internal/wire"
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data)) // want "raw json.NewDecoder outside internal/wire"
	_ = dec
	// Encoding is unrestricted; only the decode side can drop fields.
	_, err := json.Marshal(v)
	return err
}

func sanctionedDecodes(data []byte) error {
	var v struct {
		Name string `json:"name"`
	}
	if err := wire.StrictUnmarshal(data, &v); err != nil {
		return err
	}
	return wire.StrictDecode(bytes.NewReader(data), &v)
}

// fullyTagged is a well-formed wire struct: every exported field named.
type fullyTagged struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	hidden int    // unexported fields never marshal; no tag needed
}

// missingTag has a json-tagged field, making it a wire struct, but
// leaves another exported field untagged.
type missingTag struct {
	Name  string `json:"name"`
	Count int    // want "field Count of a wire struct has no json tag"
}

// an untagged embed flattens a struct into the parent document, so the
// fields it ships are not named in the wire struct itself.
type embeddedView struct {
	fullyTagged        // want "embedded field of a wire struct has no json tag"
	Extra       string `json:"extra"`
}

// a tagged embed is a named field like any other.
type taggedEmbed struct {
	fullyTagged `json:"inner"`
	Extra       string `json:"extra"`
}

// plain structs without json tags are not wire structs; no tags needed.
type plain struct {
	A int
	B string
}

func literals() {
	_ = fullyTagged{Name: "a", Count: 1}
	_ = fullyTagged{"a", 1, 0} // want "unkeyed composite literal of wire struct"
	_ = plain{1, "b"}          // not a wire struct: positional is fine
	_ = []int{1, 2, 3}
}
