package obs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"sync"
	"testing"

	"vmprim/internal/bench"
	"vmprim/internal/costmodel"
	"vmprim/internal/flightrec"
	"vmprim/internal/hypercube"
	"vmprim/internal/obs"
)

// renderGolden holds the SHA-256 of the three documents
// `vmprim -profile <id> -json -trace-out T -critpath-out C` writes for
// each profiled experiment (stdout, T and C). A renderer change that
// moves one byte of a served or written document fails here.
var renderGolden = map[string][3]string{
	"E1": {
		"ac76007ea321278833bf1ea8f9ce1eb7f2c39079ed5f56f9195f9b5bf4092002",
		"1b208c1ab65abaca5237830827e77bb56c281eaf88266b6561aad31890794b5b",
		"3dbe8a45f98ceaaca8e1f91c071fc7c0d16455a1181f73486803ece95847f5ef",
	},
	"E2": {
		"882915632bb3dbe114818aef8941f4d653de239bd455a47a5fc87ca43f142a01",
		"8e5549b899dee7d56d7828a5569d75b5e3b2c4a2e36f5bdb2260d9cdee3de9ce",
		"71567d43c917086218b817b8fc46b1ad7c60dcab93ad91835cd954d998244656",
	},
	"E3": {
		"113ec5e428a8abecbeba77fc7264c4d9c7b6952eaa87a0496a1f6aa6d953bad2",
		"d7f0469c6c34f46b344129301f8083e7470284bf7445b75a62e24fc52f00aea5",
		"913794d2d32e00527a7be43bb6002368b079ce56883f65a758958287cb14b33f",
	},
	"E4": {
		"7b7602cc11d85ef7989e8290c05537fc92ab20bd914d60c451b2edae754c2f2c",
		"02e3115c830a8ca0b8f862ff8c00ada42fca73ffee80dc2a7584d77369725379",
		"49aed68a91935b92c127af8a2674cc9843fca38acbb888386d6e319b7888d11f",
	},
	"E5": {
		"8590242af0c95a5994a8319e57f69c5ed09d04eb5ee1f8fd4a4f4e092c9abdd2",
		"022271f4c3d2ff1d734eb8cf960502348ab95039dde4c52fa7aa8b74e4497dd2",
		"0c8cb6e8251ec44014f79698c097c254b936e99dd900925e53ce73d6e6b2708f",
	},
}

// renderDocs names the three documents in renderGolden's order and
// writes each one.
var renderDocs = []struct {
	name  string
	write func(res *bench.ProfileResult, w io.Writer) error
}{
	{"profile", func(res *bench.ProfileResult, w io.Writer) error { return res.Profile.WriteJSON(w) }},
	{"trace", func(res *bench.ProfileResult, w io.Writer) error { return res.Profile.ChromeTrace(w, 0) }},
	{"critpath", func(res *bench.ProfileResult, w io.Writer) error { return res.CritPath.WriteJSON(w) }},
}

// profiledRun runs spec with the profiler and the critical-path tracer
// on, as `vmprim -profile` does.
func profiledRun(t testing.TB, spec bench.RunSpec) *bench.ProfileResult {
	t.Helper()
	res, err := spec.Run(bench.ProfileOpts{Profile: true, CritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// defaultRuns profiles each profiled experiment's default spec once for
// every test that renders them.
var defaultRuns = sync.OnceValues(func() ([]*bench.ProfileResult, error) {
	var runs []*bench.ProfileResult
	for _, id := range bench.ProfileIDs() {
		res, err := bench.RunSpec{Exp: id}.Run(bench.ProfileOpts{Profile: true, CritPath: true})
		if err != nil {
			return nil, err
		}
		runs = append(runs, res)
	}
	return runs, nil
})

func profiledDefaults(t *testing.T) []*bench.ProfileResult {
	t.Helper()
	runs, err := defaultRuns()
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestRenderGolden(t *testing.T) {
	runs := profiledDefaults(t)
	if len(runs) != len(renderGolden) {
		t.Fatalf("%d profiled experiments, golden holds %d", len(runs), len(renderGolden))
	}
	for _, res := range runs {
		id := res.ID
		for i, doc := range renderDocs {
			h := sha256.New()
			if err := doc.write(res, h); err != nil {
				t.Fatalf("%s %s: %v", id, doc.name, err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != renderGolden[id][i] {
				t.Errorf("%s %s: sha256 %s, want %s", id, doc.name, got, renderGolden[id][i])
			}
		}
	}
}

// TestRenderMatchesEncodingJSON compares the writers with the
// encoding/json oracle (the mirror structs they replaced) on every
// profiled experiment, and on a post-mortem report, which embeds its
// critical path through MarshalJSON.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	for _, res := range profiledDefaults(t) {
		id := res.ID
		var got, want bytes.Buffer
		if err := res.Profile.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := obs.OracleProfileJSON(res.Profile, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: profile differs from encoding/json:\n%s", id, firstDiff(got.Bytes(), want.Bytes()))
		}
		got.Reset()
		want.Reset()
		if err := res.CritPath.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := obs.OracleCritPathJSON(res.CritPath, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: critical path differs from encoding/json:\n%s", id, firstDiff(got.Bytes(), want.Bytes()))
		}
		if !json.Valid(traceBytes(t, res.Profile)) {
			t.Errorf("%s: Chrome trace is not valid JSON", id)
		}
	}

	rep := deadlockReport(t)
	if rep.Crit == nil || len(rep.Crit.Chain) == 0 || len(rep.Crit.Spans) == 0 {
		t.Fatalf("post-mortem carries no critical path to compare: %+v", rep.Crit)
	}
	var got, want bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	type report flightrec.Report
	oracle := struct {
		report
		Crit any `json:"critpath,omitempty"`
	}{report(*rep), obs.OracleCritPathDoc(rep.Crit)}
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(oracle); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("post-mortem differs from encoding/json:\n%s", firstDiff(got.Bytes(), want.Bytes()))
	}
	compact, err := json.Marshal(rep.Crit)
	if err != nil {
		t.Fatal(err)
	}
	wantCompact, err := json.Marshal(obs.OracleCritPathDoc(rep.Crit))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact, wantCompact) {
		t.Errorf("json.Marshal(CritPath) differs from encoding/json:\n%s", firstDiff(compact, wantCompact))
	}
}

// deadlockReport runs a profiled, critical-path-traced d=2 program that
// swaps inside nested spans and then deadlocks, and returns its
// post-mortem.
func deadlockReport(t *testing.T) *flightrec.Report {
	t.Helper()
	m, err := hypercube.New(2, costmodel.CM2())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.EnableProfile(true)
	m.EnableCritPath(true)
	_, err = m.Run(func(p *hypercube.Proc) {
		p.BeginSpan("solve")
		p.BeginSpan("swap <rows> & cols")
		p.Compute(10)
		p.Recycle(p.Exchange(0, 1, []float64{1, 2}))
		p.EndSpan()
		p.EndSpan()
		if p.ID() == 0 {
			p.Recv(1, 9) // never sent: deadlock
		}
	})
	var re *hypercube.RunError
	if !errors.As(err, &re) || re.Report == nil {
		t.Fatalf("Run error = %v, want a post-mortem", err)
	}
	return re.Report
}

func traceBytes(t testing.TB, pf *obs.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pf.ChromeTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstDiff shows both documents from a little before their first
// differing byte.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(i-80, 0)
	return "got:  ..." + string(got[from:min(i+80, len(got))]) +
		"\nwant: ..." + string(want[from:min(i+80, len(want))])
}

// servedE1 and servedE4 are two of the serve workload's specs, the
// smallest and the largest trace it renders.
var (
	servedE1 = bench.RunSpec{Exp: "E1", D: 4, N: 64}
	servedE4 = bench.RunSpec{Exp: "E4", D: 3, N: 16}
)

// TestRenderAllocsIndependentOfSize: the documents stream through one
// bounded buffer, so a trace twenty times longer costs no more
// allocations.
func TestRenderAllocsIndependentOfSize(t *testing.T) {
	small, large := profiledRun(t, servedE1), profiledRun(t, servedE4)
	if s, l := len(traceBytes(t, small.Profile)), len(traceBytes(t, large.Profile)); l < 10*s {
		t.Fatalf("traces of %d and %d bytes are too close in size to tell", s, l)
	}
	for _, doc := range renderDocs {
		allocs := func(res *bench.ProfileResult) float64 {
			return testing.AllocsPerRun(5, func() {
				if err := doc.write(res, io.Discard); err != nil {
					t.Fatal(err)
				}
			})
		}
		const slack = 4
		if s, l := allocs(small), allocs(large); l > s+slack {
			t.Errorf("%s: %v allocations for E4, %v for E1; want at most %d more", doc.name, l, s, slack)
		}
	}
}

// BenchmarkRender times each document of the serve workload's E4 run.
func BenchmarkRender(b *testing.B) {
	res := profiledRun(b, servedE4)
	for _, doc := range renderDocs {
		b.Run(doc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := doc.write(res, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
