package obs

import (
	"encoding/json"
	"io"

	"vmprim/internal/costmodel"
)

// The encoding/json oracle. Before the package rendered through jw, the
// profile and critical-path documents were built as the mirror structs
// below and handed to encoding/json; they are kept here, as they were,
// for the tests to compare jw's output with. One field changed:
// jsonProfile.CritPath holds the oracle's own critical-path document
// (it held *CritPath, whose MarshalJSON now renders through jw), so the
// oracle shares no rendering code with what it checks.

// Exported for the external tests of this package.
var (
	OracleProfileJSON  = oracleProfileJSON
	OracleCritPathJSON = oracleCritPathJSON
)

// OracleCritPathDoc returns the oracle's document for cp, to embed in a
// larger encoding/json value in place of cp.
func OracleCritPathDoc(cp *CritPath) any { return cp.jsonDoc() }

// jsonSpan mirrors Span for export. Times are mean per-processor
// microseconds; max_incl_us is the slowest single processor.
type jsonSpan struct {
	Name      string     `json:"name"`
	Note      string     `json:"note,omitempty"`
	Count     int64      `json:"count"`
	InclUs    float64    `json:"incl_us"`
	ExclUs    float64    `json:"excl_us"`
	MaxInclUs float64    `json:"max_incl_us"`
	Compute   float64    `json:"compute_us"`
	Startup   float64    `json:"startup_us"`
	Transfer  float64    `json:"transfer_us"`
	Idle      float64    `json:"idle_us"`
	PredUs    float64    `json:"pred_us,omitempty"`
	Msgs      int64      `json:"msgs"`
	Words     int64      `json:"words"`
	Flops     int64      `json:"flops"`
	Children  []jsonSpan `json:"children,omitempty"`
}

type jsonProfile struct {
	Dim        int           `json:"dim"`
	P          int           `json:"p"`
	ElapsedUs  float64       `json:"elapsed_us"`
	Msgs       int64         `json:"msgs"`
	Words      int64         `json:"words"`
	Flops      int64         `json:"flops"`
	Buckets    Buckets       `json:"buckets_mean_us"`
	SkewUs     float64       `json:"bucket_skew_us"`
	Congestion []LinkLoad    `json:"congestion,omitempty"`
	Spans      jsonSpan      `json:"spans"`
	CritPath   *jsonCritPath `json:"critpath,omitempty"`
}

// oracleProfileJSON is Profile.WriteJSON as it was: conv copies the
// span tree into mirror structs and encoding/json indents them.
func oracleProfileJSON(pf *Profile, w io.Writer) error {
	inv := 1.0 / float64(pf.P)
	var conv func(s *Span) jsonSpan
	conv = func(s *Span) jsonSpan {
		js := jsonSpan{
			Name:      s.Name,
			Note:      s.Note,
			Count:     s.Count,
			InclUs:    float64(s.Incl) * inv,
			ExclUs:    float64(s.Excl) * inv,
			MaxInclUs: float64(s.MaxIncl),
			Compute:   float64(s.Buckets.Compute) * inv,
			Startup:   float64(s.Buckets.Startup) * inv,
			Transfer:  float64(s.Buckets.Transfer) * inv,
			Idle:      float64(s.Buckets.Idle) * inv,
			PredUs:    float64(s.Pred) * inv,
			Msgs:      s.Messages,
			Words:     s.Words,
			Flops:     s.Flops,
		}
		for _, c := range s.Children {
			js.Children = append(js.Children, conv(c))
		}
		return js
	}
	mean := pf.Root.Buckets
	mean.Compute = costmodel.Time(float64(mean.Compute) * inv)
	mean.Startup = costmodel.Time(float64(mean.Startup) * inv)
	mean.Transfer = costmodel.Time(float64(mean.Transfer) * inv)
	mean.Idle = costmodel.Time(float64(mean.Idle) * inv)
	links := pf.Links
	if len(links) > 32 {
		links = links[:32]
	}
	doc := jsonProfile{
		Dim:        pf.Dim,
		P:          pf.P,
		ElapsedUs:  float64(pf.Elapsed),
		Msgs:       pf.Messages,
		Words:      pf.Words,
		Flops:      pf.Flops,
		Buckets:    mean,
		SkewUs:     float64(pf.BucketSkew()),
		Congestion: links,
		Spans:      conv(pf.Root),
	}
	if pf.Crit != nil {
		cp := pf.Crit.jsonDoc()
		doc.CritPath = &cp
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// jsonCritPath is the critical-path document's mirror struct.
type jsonCritPath struct {
	Dim         int             `json:"dim"`
	P           int             `json:"p"`
	EndProc     int             `json:"end_proc"`
	MakespanUs  float64         `json:"makespan_us"`
	Buckets     Buckets         `json:"buckets_us"`
	Hops        int             `json:"hops"`
	SkewUs      float64         `json:"skew_us"`
	ByDimUs     []float64       `json:"transfer_by_dim_us"`
	Spans       []jsonPathSpan  `json:"spans"`
	OtherUs     float64         `json:"other_us"`
	Chain       []jsonPathSeg   `json:"chain"`
	Dropped     int             `json:"chain_dropped"`
	Conformance jsonConformance `json:"conformance"`
}

type jsonPathSpan struct {
	Name     string  `json:"name"`
	Compute  float64 `json:"compute_us"`
	Startup  float64 `json:"startup_us"`
	Transfer float64 `json:"transfer_us"`
	Idle     float64 `json:"idle_us"`
	TotalUs  float64 `json:"total_us"`
	Share    float64 `json:"share"`
}

type jsonPathSeg struct {
	Proc int     `json:"proc"`
	From int     `json:"from,omitempty"`
	Span string  `json:"span,omitempty"`
	Kind string  `json:"kind"`
	Dim  int     `json:"dim"`
	T0   float64 `json:"t0_us"`
	T1   float64 `json:"t1_us"`
}

type jsonConformance struct {
	Threshold float64         `json:"threshold"`
	Entries   []jsonConfEntry `json:"entries"`
}

type jsonConfEntry struct {
	Name        string  `json:"name"`
	Count       int64   `json:"count"`
	MeasuredUs  float64 `json:"measured_per_op_us"`
	PredictedUs float64 `json:"predicted_per_op_us"`
	Ratio       float64 `json:"ratio"`
	PathShare   float64 `json:"path_share"`
	Flagged     bool    `json:"flagged"`
}

func (cp *CritPath) jsonDoc() jsonCritPath {
	doc := jsonCritPath{
		Dim:        cp.Dim,
		P:          cp.P,
		EndProc:    cp.EndProc,
		MakespanUs: float64(cp.Makespan),
		Buckets:    cp.Buckets,
		Hops:       cp.Hops,
		SkewUs:     cp.SkewUs,
		ByDimUs:    make([]float64, len(cp.ByDim)),
		Spans:      make([]jsonPathSpan, 0, len(cp.Spans)),
		Chain:      make([]jsonPathSeg, 0, len(cp.Chain)),
		Dropped:    cp.ChainDropped,
		Conformance: jsonConformance{
			Threshold: cp.Threshold,
			Entries:   make([]jsonConfEntry, 0, len(cp.Conformance)),
		},
	}
	for d, t := range cp.ByDim {
		doc.ByDimUs[d] = float64(t)
	}
	share := func(t costmodel.Time) float64 {
		if cp.Makespan <= 0 {
			return 0
		}
		return float64(t) / float64(cp.Makespan)
	}
	for _, s := range cp.Spans {
		doc.Spans = append(doc.Spans, jsonPathSpan{
			Name:     s.Name,
			Compute:  float64(s.Buckets.Compute),
			Startup:  float64(s.Buckets.Startup),
			Transfer: float64(s.Buckets.Transfer),
			Idle:     float64(s.Buckets.Idle),
			TotalUs:  float64(s.Total()),
			Share:    share(s.Total()),
		})
	}
	doc.OtherUs = float64(cp.Other.Total())
	for _, sg := range cp.Chain {
		doc.Chain = append(doc.Chain, jsonPathSeg{
			Proc: sg.Proc, From: sg.From, Span: sg.Span, Kind: sg.Kind,
			Dim: sg.Dim, T0: float64(sg.T0), T1: float64(sg.T1),
		})
	}
	for _, e := range cp.Conformance {
		doc.Conformance.Entries = append(doc.Conformance.Entries, jsonConfEntry{
			Name: e.Name, Count: e.Count, MeasuredUs: e.MeasuredUs,
			PredictedUs: e.PredictedUs, Ratio: e.Ratio,
			PathShare: e.PathShare, Flagged: e.Flagged,
		})
	}
	return doc
}

// oracleCritPathJSON is CritPath.WriteJSON as it was.
func oracleCritPathJSON(cp *CritPath, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp.jsonDoc())
}
