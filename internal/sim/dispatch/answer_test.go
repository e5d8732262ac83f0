package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"rebalance/internal/sim"
)

// memberError is the oracle of a failed member's record: the struct
// json.Marshal wrote it from before the answer was appended by hand.
type memberError struct {
	Error   string `json:"error"`
	Invalid bool   `json:"invalid,omitempty"`
}

// TestMemberErrorMatchesMarshal: appendMemberError writes exactly the bytes
// json.Marshal wrote for memberError, for a plain and an invalid member and
// for messages encoding/json must escape, and decodeAnswer reads each back
// as the member's failure.
func TestMemberErrorMatchesMarshal(t *testing.T) {
	for _, err := range []error{
		errors.New("worker exploded"),
		fmt.Errorf("%w: unknown workload \"a<b>&c\"\n\x00 ünï \xff", sim.ErrInvalidSpec),
	} {
		want, _ := json.Marshal(memberError{Error: err.Error(), Invalid: errors.Is(err, sim.ErrInvalidSpec)})
		got := appendMemberError(nil, err)
		if string(got) != string(want) {
			t.Errorf("appendMemberError = %s, want %s", got, want)
		}
		out, derr := decodeAnswer(append(append([]byte("["), got...), ']'), make([]sim.ShardSpec, 1), make([]sim.ObserverConfig, 1))
		if derr != nil || out[0].Err == nil || errors.Is(out[0].Err, sim.ErrInvalidSpec) != errors.Is(err, sim.ErrInvalidSpec) {
			t.Errorf("decodeAnswer of %s = %v (call error %v)", got, out, derr)
		}
	}
}
