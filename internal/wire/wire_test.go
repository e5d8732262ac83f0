package wire

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
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

// scanPayload reads a payload as its appender would write it, with an
// optional nested value.
func scanPayload(sc *Scanner) (payload, error) {
	var p payload
	sc.Open('{')
	sc.Key("name")
	p.Name = sc.String()
	sc.Key("count")
	p.Count = sc.Int()
	if sc.Field("value") {
		v, _ := scanPayload(sc)
		p.Name += "+" + v.Name
	}
	sc.Close('}')
	return p, sc.Err()
}

// TestScannerReadsFieldsInOrder: the scanner reads a document in its
// writer's field order, skipping whitespace, and refuses what it was not
// written as — a null, absent or out-of-order field, an unknown one, a
// value of the wrong type, a malformed number, trailing data — and whatever
// it accepts, StrictUnmarshal accepts with the same value.
func TestScannerReadsFieldsInOrder(t *testing.T) {
	for in, want := range map[string]string{
		`{"name":"doc","count":1}`:                                      "doc/1",
		" {\"name\" : \"d\\u00f6c\" ,\n\"count\":-0 } \t":               "döc/0",
		`{"name":"doc","count":1,"value":{"name":"v","count":7}}`:       "doc+v/1",
		`{"name":"doc","count":1,"value":null}`:                         "error",
		`{"name":"doc"}`:                                                "error",
		`{"count":1,"name":"doc"}`:                                      "error",
		`{"name":"doc","Count":1}`:                                      "error",
		`{"name":"doc","count":1,"counter":7}`:                          "error",
		`{"name":"doc","count":"seven"}`:                                "error",
		`{"name":"doc","count":1.0}`:                                    "error",
		`{"name":"doc","count":01}`:                                     "error",
		`{"name":"doc","count":1}}`:                                     "error",
		`{"name":"doc","count":1} garbage`:                              "error",
		`{"name":"doc","count":9223372036854775808}`:                    "error",
		`{"name":"doc\x01","count":1}`:                                  "error",
		`{"name":"doc","count":1,"value":{"name":"v","count":7,"x":1}}`: "error",
	} {
		got := "error"
		if p, err := Decode([]byte(in), scanPayload); err == nil {
			got = p.Name + "/" + strconv.FormatInt(p.Count, 10)
			var oracle payload
			if !strings.Contains(in, "value") && (StrictUnmarshal([]byte(in), &oracle) != nil || oracle != p) {
				t.Errorf("%s: scanned %+v, StrictUnmarshal %+v", in, p, oracle)
			}
		}
		if got != want {
			t.Errorf("%s: got %s, want %s", in, got, want)
		}
	}
}

// TestScannerFloatsMatchStrictUnmarshal: a number Float reads or
// SkipFloat drops is one StrictUnmarshal reads into a float64, to the same
// value, and one it refuses both refuse; the scanner refuses a null too.
func TestScannerFloatsMatchStrictUnmarshal(t *testing.T) {
	for _, in := range []string{"1.5", "-0", "0.000001", "1e308", "1E+2", "-2.5e-400", "1e309", "1" + strings.Repeat("0", 310),
		"0." + strings.Repeat("0", 320) + "1", "1.", ".5", "01", "+1", "-", "1e", "NaN", "0x10", "1_000", `"1"`, "null"} {
		var want float64
		werr := StrictUnmarshal([]byte(in), &want)
		got, err := Decode([]byte(in), func(sc *Scanner) (float64, error) { return sc.Float(), sc.Err() })
		_, serr := Decode([]byte(in), func(sc *Scanner) (any, error) { sc.SkipFloat(); return nil, sc.Err() })
		accepted := werr == nil && in != "null" // a null the scanner refuses by design
		if (err == nil) != accepted || (serr == nil) != accepted || (accepted && got != want) {
			t.Errorf("%.40s: Float %v (err %v), SkipFloat err %v; StrictUnmarshal %v (err %v)", in, got, err, serr, want, werr)
		}
	}
}

// TestScannerHostIntMatchesStrictUnmarshal: HostInt reads what
// StrictUnmarshal reads into an int on the host running the test, to the
// same value, and refuses what it refuses — an integer past the host's
// int included, which on a 32-bit host is one that fits 64 bits.
func TestScannerHostIntMatchesStrictUnmarshal(t *testing.T) {
	past := strconv.FormatUint(uint64(math.MaxInt)+1, 10)
	for _, in := range []string{"0", "-7", strconv.Itoa(math.MaxInt), strconv.Itoa(math.MinInt), past, "-" + past + "1",
		"4294967296", "9223372036854775808", "1.0", "1e3", `"1"`} {
		var want int
		werr := StrictUnmarshal([]byte(in), &want)
		got, err := Decode([]byte(in), func(sc *Scanner) (int, error) { return sc.HostInt(), sc.Err() })
		if (err == nil) != (werr == nil) || got != want {
			t.Errorf("%s: HostInt %d (err %v); StrictUnmarshal %d (err %v)", in, got, err, want, werr)
		}
	}
}

// TestAppendFloatMatchesMarshal: AppendFloat writes what json.Marshal
// writes for a float64, across both notations and their boundaries.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1.0 / 3, 1e-6, 9.999999e-7, 1e-7, 1.5e-300,
		1e20, 1e21, 123456789012345678901234.0, math.MaxFloat64, math.SmallestNonzeroFloat64, 100 * 2.0 / 3} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
	if CheckFinite(1, math.Inf(1)) == nil || CheckFinite(math.NaN()) == nil || CheckFinite(0, -1) != nil {
		t.Error("CheckFinite does not single out NaN and the infinities")
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

// failingReader is a request body whose read breaks partway, the way a
// client that drops its connection mid-body looks to a handler.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestReadBody: a body of exactly limit bytes is read whole; one byte more
// is a 413 naming the limit; any other read failure is a 500, a transport
// fault the peer may retry, never a 400 that judges the request.
func TestReadBody(t *testing.T) {
	const limit = 64
	for _, tc := range []struct {
		body   io.Reader
		status int
		want   string
	}{
		{strings.NewReader(strings.Repeat("x", limit)), http.StatusOK, ""},
		{strings.NewReader(strings.Repeat("x", limit+1)), http.StatusRequestEntityTooLarge, "request body exceeds the 64-byte limit"},
		{failingReader{}, http.StatusInternalServerError, "reading request body: connection reset"},
	} {
		rec := httptest.NewRecorder()
		body, ok := ReadBody(rec, httptest.NewRequest(http.MethodPost, "/", tc.body), limit)
		if ok != (tc.status == http.StatusOK) || rec.Code != tc.status || (ok && len(body) != limit) {
			t.Errorf("ReadBody = %d bytes, %v; answered %d, want %d", len(body), ok, rec.Code, tc.status)
		}
		if got := ErrorMessage(rec.Body.Bytes()); got != tc.want {
			t.Errorf("ReadBody answered %q, want %q", got, tc.want)
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
