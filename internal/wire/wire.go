// Package wire holds the JSON conventions every process boundary shares:
// strict unmarshalling, the one-pass Scanner and the appenders records
// are read and written with, the bounded request-body read and the error
// envelope. Result artifacts travel between processes (the dispatch layer
// folds shards produced by remote simd workers), so a decoder must reject
// unknown fields and trailing garbage — a mangled or mis-routed artifact
// has to fail loudly instead of silently dropping counters.
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

// ReadBody reads a request body of at most limit bytes, the one bounded
// read every JSON endpoint shares. On failure it has already answered —
// 413 naming the limit for an oversize body, 500 for any other read
// failure, which is a transport fault and not a judgment on the request —
// and returns false.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
	case err != nil:
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("reading request body: %w", err))
	default:
		return body, true
	}
	return nil, false
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
// and its body. A body longer than limit bytes is an error naming the
// limit, never a silently cut prefix. Transport errors are returned as
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
	// A body of announced length is read into one buffer of that size;
	// the transport holds it to the announcement.
	var data []byte
	switch n := resp.ContentLength; {
	case n > limit:
	case n >= 0:
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	default:
		data, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
	}
	if err != nil {
		return nil, 0, fmt.Errorf("reading response body: %w", err)
	}
	if resp.ContentLength > limit || int64(len(data)) > limit {
		return nil, 0, fmt.Errorf("response body exceeds %d bytes", limit)
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
