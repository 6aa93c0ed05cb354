package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"vmprim/internal/costmodel"
)

// FuzzJSONAppend checks the string and float appenders against
// encoding/json: strings with HTML escaping on (json.Marshal) and off
// (an Encoder with SetEscapeHTML(false)), floats against
// json.Marshal(float64), error for error on NaN and ±Inf.
func FuzzJSONAppend(f *testing.F) {
	var ctl strings.Builder
	for b := byte(0); b < 0x20; b++ {
		ctl.WriteByte(b)
	}
	for _, s := range []string{
		"", "plain", `<a href="x">&amp;</a>`, "line\u2028para\u2029end",
		"bad \x80 utf8 \xff\xfe", "\xe2\x80", ctl.String(), `back\slash "quote"`,
		"\u00e9 \u65e5\u672c \U0001F600", "\x7f",
	} {
		f.Add(s, 0.0)
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, -1e21, 1e20,
		5e-324, 2.2250738585072014e-308, 1 << 53, 1<<53 + 1, 123.456,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add("", x)
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s, true); !bytes.Equal(got, want) {
			t.Errorf("HTML-escaped %q: got %s, want %s", s, got, want)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		want = bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if got := appendJSONString(nil, s, false); !bytes.Equal(got, want) {
			t.Errorf("unescaped %q: got %s, want %s", s, got, want)
		}

		want, wantErr := json.Marshal(x)
		got, gotErr := appendJSONFloat(nil, x)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Errorf("%v: error %v, encoding/json %v", x, gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Errorf("%v: error %q, encoding/json %q", x, gotErr, wantErr)
		case gotErr == nil && !bytes.Equal(got, want):
			t.Errorf("%v: got %s, want %s", x, got, want)
		}
	})
}

// chromeProfile builds a one-span profile whose span carries note and
// occurs n times on processor 0.
func chromeProfile(note string, n int) *Profile {
	insts := make([]Instance, n)
	for i := range insts {
		insts[i] = Instance{Node: 0, Begin: costmodel.Time(i), End: costmodel.Time(i) + 0.5}
	}
	procs := []ProcData{
		{Clock: costmodel.Time(n), Meta: []NodeMeta{{Name: "span", Parent: -1, Note: note}},
			Stats: []NodeStats{{Count: int64(n)}}, Instances: insts},
		{Clock: costmodel.Time(n), Meta: []NodeMeta{{Name: "span", Parent: -1}},
			Stats: []NodeStats{{Count: int64(n)}}},
	}
	return Build(1, procs, nil, nil)
}

// TestChromeTraceQuotesAsJSON: a note with control bytes and invalid
// UTF-8 still yields valid JSON, whose note decodes with U+FFFD in
// place of the bad byte.
func TestChromeTraceQuotesAsJSON(t *testing.T) {
	const note = "a\x00\a\x80 b"
	var buf bytes.Buffer
	if err := chromeProfile(note, 1).ChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace is not valid JSON:\n%s", buf.Bytes())
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				Note string `json:"note"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var notes []string
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			notes = append(notes, ev.Args.Note)
		}
	}
	if want := "a\x00\a\ufffd b"; len(notes) != 1 || notes[0] != want {
		t.Fatalf("span notes %q, want [%q]", notes, want)
	}
}

// writeSizes records the length of every Write.
type writeSizes []int

func (w *writeSizes) Write(p []byte) (int, error) {
	*w = append(*w, len(p))
	return len(p), nil
}

// TestRenderStreamsBoundedChunks: a document far larger than the
// buffer reaches its writer in several writes, none larger than the
// buffer.
func TestRenderStreamsBoundedChunks(t *testing.T) {
	pf := chromeProfile("", 4000)
	var sizes writeSizes
	if err := pf.ChromeTrace(&sizes, 0); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range sizes {
		total += n
		if n > jwBufSize {
			t.Errorf("one write of %d bytes; the buffer holds %d", n, jwBufSize)
		}
	}
	if total < 20*jwBufSize || len(sizes) < 20 {
		t.Fatalf("%d bytes in %d writes; want a document of many buffers", total, len(sizes))
	}
}

// TestRenderRejectsNonFinite: NaN and ±Inf are not JSON; the writers
// return encoding/json's error rather than a document.
func TestRenderRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cp := &CritPath{SkewUs: x}
		werr := cp.WriteJSON(io.Discard)
		_, merr := json.Marshal(cp)
		_, oerr := json.Marshal(cp.jsonDoc())
		if werr == nil || merr == nil || oerr == nil {
			t.Fatalf("%v: WriteJSON %v, Marshal %v; encoding/json %v", x, werr, merr, oerr)
		}
		if !strings.Contains(merr.Error(), oerr.Error()) || werr.Error() != oerr.Error() {
			t.Errorf("%v: WriteJSON %q, Marshal %q; encoding/json %q", x, werr, merr, oerr)
		}
	}
}
