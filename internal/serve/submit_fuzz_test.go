package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vmprim/internal/bench"
)

// FuzzSubmit drives POST /runs end to end through the server's handler,
// past the parser FuzzRunSpec covers: the size limit, the strict
// decoder, validation and the closed-server answer. The server is
// closed before the first input, so a body it accepts answers 503 and
// nothing runs. Every answer must be a structured 400, 413 or 503 —
// never a 500 or a panic — and 503 exactly when the body is one JSON
// value, within the size limit and with no unknown field, that
// Normalized accepts.
func FuzzSubmit(f *testing.F) {
	// FuzzRunSpec's seeds, its bounds written out.
	for _, e := range bench.All() {
		f.Add([]byte(fmt.Sprintf(`{"exp":%q}`, e.ID)))
	}
	for _, edge := range []string{
		`{"exp":"e1","d":1,"n":4,"model":"IPSC"}`,
		`{"exp":"E2","d":12,"n":4096,"model":"cm2"}`,
		`{"exp":"E3","d":13,"n":3}`,
		`{"exp":" e4 ","d":-1,"n":4097}`,
		`{"model":"` + strings.Repeat("x", maxSpecBytes) + `"}`,
		`{"exp":"E1"} junk`,
		`{"exp":"E1","frobnicate":1}`,
	} {
		f.Add([]byte(edge))
	}
	s := New(Options{Workers: 1})
	s.Close()
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusServiceUnavailable:
		case http.StatusRequestEntityTooLarge:
			if len(body) <= maxSpecBytes {
				t.Fatalf("%q: 413 for a body within the limit", body)
			}
		default:
			t.Fatalf("%q: answered %d", body, rec.Code)
		}
		if want := acceptableSpec(body); (rec.Code == http.StatusServiceUnavailable) != want {
			t.Fatalf("%q: answered %d, acceptable spec %v", body, rec.Code, want)
		}
		var e struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
			t.Fatalf("%q: %d with an unstructured body %q", body, rec.Code, rec.Body.Bytes())
		}
	})
}

// acceptableSpec reports whether body is a submission the server would
// queue: at most maxSpecBytes, one JSON object with only RunSpec's
// fields followed by nothing but whitespace, normalizing cleanly.
func acceptableSpec(body []byte) bool {
	if len(body) > maxSpecBytes {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec bench.RunSpec
	if dec.Decode(&spec) != nil {
		return false
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		return false
	}
	_, err := spec.Normalized()
	return err == nil
}
