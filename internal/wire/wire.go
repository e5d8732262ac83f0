// Package wire holds the JSON conventions every process boundary shares:
// strict unmarshalling and the error envelope. Result artifacts travel
// between processes (the dispatch layer folds shards produced by remote
// simd workers), so a decoder must reject unknown fields and trailing
// garbage — a mangled or mis-routed artifact has to fail loudly instead of
// silently dropping counters.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// StrictUnmarshal decodes exactly one JSON document into v, rejecting
// unknown fields and trailing data. It never panics on malformed input.
func StrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// ErrAbsent is what a Target's build reports when the document it was
// decoded with held no value for it: the field was absent, or null.
var ErrAbsent = errors.New("no value")

// Target makes a decode target for one value of wire shape W inside a
// larger document. ptr is what encoding/json fills: a pointer to a nil *W.
// A document struct that holds ptr as the value of an `any` field decodes
// the value in place, in the same pass as the document around it —
// encoding/json fills a non-nil pointer an interface holds, and
// DisallowUnknownFields reaches inside it. build, called once that decode
// is done, makes the value from what was filled, or fails with ErrAbsent
// when the document held none, so a missing value is never built from
// zeroes.
func Target[W, R any](from func(*W) (R, error)) (ptr any, build func() (R, error)) {
	var w *W
	return &w, func() (R, error) {
		if w == nil {
			var zero R
			return zero, ErrAbsent
		}
		return from(w)
	}
}

// Decode strictly decodes data, a document that is exactly one target's
// value, through the target newTarget makes, and builds the value.
func Decode[R any](data []byte, newTarget func() (any, func() (R, error))) (R, error) {
	ptr, build := newTarget()
	if err := StrictUnmarshal(data, ptr); err != nil {
		var zero R
		return zero, err
	}
	return build()
}

// StrictDecode decodes exactly one JSON document from r into v with the
// same strictness as StrictUnmarshal: unknown fields and trailing data
// are errors. It is the streaming entry point for HTTP request bodies,
// so every wire boundary — client and server side — rejects drift the
// same way.
func StrictDecode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second Decode distinguishes clean EOF from trailing garbage
	// without buffering the whole body.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// errorEnvelope is the body of every 4xx/5xx the services answer with:
// the message plus a code mirroring the HTTP status, so clients that only
// surface the decoded body still see the class of failure.
type errorEnvelope struct {
	Code  int    `json:"code"`
	Error string `json:"error"`
}

// WriteError answers a request with status and err's message in the error
// envelope.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Code: status, Error: err.Error()})
}

// Do is the one JSON round trip every client shares: body (nil for none)
// goes out as application/json, and the response comes back as its status
// and at most limit bytes of its body. Transport errors are returned as
// they are; what a status means is the caller's to say.
func Do(ctx context.Context, client *http.Client, method, url string, body []byte, limit int64) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, 0, fmt.Errorf("reading response body: %w", err)
	}
	return data, resp.StatusCode, nil
}

// ErrorMessage extracts the message of a non-2xx response body: the
// envelope's error field when the body is exactly an envelope, else the
// trimmed raw body (a proxy's HTML, a foreign server).
func ErrorMessage(body []byte) string {
	var e errorEnvelope
	if StrictUnmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}
