package wire

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

type payload struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

func TestStrictUnmarshalValid(t *testing.T) {
	var p payload
	if err := StrictUnmarshal([]byte(`{"name":"a","count":3}`), &p); err != nil {
		t.Fatal(err)
	}
	if p.Name != "a" || p.Count != 3 {
		t.Errorf("decoded %+v", p)
	}
}

// TestStrictUnmarshalRejects pins the failure modes that matter on the
// wire: a mangled or mis-routed artifact must fail loudly, never decode
// partially or drop fields.
func TestStrictUnmarshalRejects(t *testing.T) {
	cases := []struct {
		name, in, wantSubstr string
	}{
		{"unknown field", `{"name":"a","counter":3}`, "unknown field"},
		{"trailing garbage", `{"name":"a"} garbage`, "trailing data"},
		{"second document", `{"name":"a"}{"name":"b"}`, "trailing data"},
		{"malformed", `{"name":`, "unexpected EOF"},
		{"wrong type", `{"count":"three"}`, "cannot unmarshal"},
		{"empty input", ``, "EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p payload
			err := StrictUnmarshal([]byte(tc.in), &p)
			if err == nil {
				t.Fatalf("decoded %q without error", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Errorf("error = %v, want substring %q", err, tc.wantSubstr)
			}
		})
	}
}

func TestStrictUnmarshalTrailingWhitespaceOK(t *testing.T) {
	var p payload
	if err := StrictUnmarshal([]byte("{\"name\":\"a\"}\n  \t"), &p); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestStrictUnmarshalNeverPanics(t *testing.T) {
	for _, in := range []string{"null", "[]", `"str"`, "{", "}", "\x00\xff", "123"} {
		var p payload
		_ = StrictUnmarshal([]byte(in), &p) // must not panic
	}
}

// TestTargetDecodesInPlace: a target held in an `any` field is filled in the
// same strict pass as the document around it — an unknown field inside it
// fails the document — and an absent or null value builds to ErrAbsent, not
// to a zero value.
func TestTargetDecodesInPlace(t *testing.T) {
	newTarget := func() (any, func() (payload, error)) {
		return Target(func(p *payload) (payload, error) { return *p, nil })
	}
	for in, want := range map[string]string{
		`{"name":"doc","count":1}`:                                      "absent",
		`{"name":"doc","count":1,"value":null}`:                         "absent",
		`{"name":"doc","count":1,"value":{"name":"v","count":7}}`:       "v/7",
		`{"name":"doc","count":1,"value":{"name":"v","counter":7}}`:     "error",
		`{"name":"doc","count":1,"value":{"name":"v","count":"seven"}}`: "error",
	} {
		ptr, build := newTarget()
		doc := struct {
			payload
			Value any `json:"value"`
		}{Value: ptr}
		got := "error"
		if StrictUnmarshal([]byte(in), &doc) == nil {
			if v, err := build(); errors.Is(err, ErrAbsent) {
				got = "absent"
			} else if err == nil {
				got = v.Name + "/" + strconv.FormatInt(v.Count, 10)
			}
		}
		if got != want {
			t.Errorf("%s: got %s, want %s", in, got, want)
		}
	}
	if v, err := Decode([]byte(`{"name":"alone","count":2}`), newTarget); err != nil || v.Name != "alone" || v.Count != 2 {
		t.Errorf("Decode = %+v, %v", v, err)
	}
	if _, err := Decode([]byte(`null`), newTarget); !errors.Is(err, ErrAbsent) {
		t.Errorf("Decode(null) error = %v, want ErrAbsent", err)
	}
}

// TestDoRefusesAnOverLimitBody: a body of exactly limit bytes comes back
// whole, and one byte more is an error naming the limit — not a prefix
// that fails later as malformed JSON and blames the peer for it.
func TestDoRefusesAnOverLimitBody(t *testing.T) {
	const limit = 64
	for _, n := range []int{limit, limit + 1} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte(strings.Repeat("x", n)))
		}))
		data, status, err := Do(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, limit)
		srv.Close()
		if n == limit && (err != nil || status != http.StatusOK || len(data) != limit) {
			t.Errorf("%d-byte body under a %d-byte limit: %d bytes, status %d, err %v; want it whole", n, limit, len(data), status, err)
		}
		if want := "response body exceeds 64 bytes"; n > limit && (err == nil || err.Error() != want || data != nil) {
			t.Errorf("%d-byte body under a %d-byte limit: %d bytes, err %v; want %q", n, limit, len(data), err, want)
		}
	}
}

// TestErrorEnvelope pins the envelope's bytes (every service's 4xx/5xx
// body, compared verbatim by clients and CI) and the reader's fallback:
// an exact envelope yields its message, anything else the raw body.
func TestErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, 429, errors.New(`tenant "a" queue full`))
	const want = `{"code":429,"error":"tenant \"a\" queue full"}` + "\n"
	if rec.Code != 429 || rec.Body.String() != want || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("WriteError wrote %d %q (%s), want 429 %q as JSON", rec.Code, rec.Body, rec.Header().Get("Content-Type"), want)
	}
	for body, want := range map[string]string{
		want:                              `tenant "a" queue full`,
		`{"error": "no code field"}`:      "no code field",
		`{"error":"x","code":1,"z":2}`:    `{"error":"x","code":1,"z":2}`,
		" <html>502 Bad Gateway</html>\n": "<html>502 Bad Gateway</html>",
		`{"error":""}`:                    `{"error":""}`,
	} {
		if got := ErrorMessage([]byte(body)); got != want {
			t.Errorf("ErrorMessage(%q) = %q, want %q", body, got, want)
		}
	}
}
