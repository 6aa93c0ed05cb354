package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// A span is one timed call the harness made into a layer. Spans of one
// op share Op; Parent indexes the same client's span list (-1 for the
// op's root "cycle" span).
type span struct {
	Name   string        `json:"name"`
	Client int           `json:"client"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// A tracer keeps one client's spans in memory. A nil tracer records
// nothing, which is how the untraced runs pay no tracing cost beyond a
// nil check per call.
type tracer struct {
	epoch  time.Time
	client int
	op     int
	spans  []span
	stack  []int
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{
		Name: name, Client: t.client, Op: t.op, Parent: parent, Start: time.Since(t.epoch),
	})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Since(t.epoch)
}

// covered returns, per span of one client's list, how much of its
// interval its direct children cover: the union of the children's
// intervals clipped to the parent, so overlapping children are not
// counted twice.
func covered(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for parent, ks := range kids {
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		lo, hi := spans[parent].Start, spans[parent].End
		reach := lo
		for _, k := range ks {
			s, e := spans[k].Start, spans[k].End
			if s < reach {
				s = reach
			}
			if e > hi {
				e = hi
			}
			if e > s {
				out[parent] += e - s
				reach = e
			}
		}
	}
	return out
}

// fillSelf sets every span's self time: its duration minus the part its
// children cover.
func fillSelf(spans []span) {
	cov := covered(spans)
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start - cov[i]
	}
}

// spanSummary aggregates finished spans by name.
type spanSummary struct {
	durMs map[string][]float64 // every duration, for medians
	// cycleCover is the share of all root ("cycle") span time that the
	// roots' children cover.
	cycleCover float64
}

func summarize(spans []span) spanSummary {
	sum := spanSummary{durMs: map[string][]float64{}}
	var rootDur, rootSelf time.Duration
	for _, s := range spans {
		d := s.End - s.Start
		sum.durMs[s.Name] = append(sum.durMs[s.Name], ms(d))
		if s.Parent < 0 {
			rootDur += d
			rootSelf += s.Self
		}
	}
	if rootDur > 0 {
		sum.cycleCover = 1 - float64(rootSelf)/float64(rootDur)
	}
	return sum
}

// medianMs is the median duration of the spans called name, in ms.
func (s spanSummary) medianMs(name string) float64 { return median(s.durMs[name]) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeTrace writes the spans of one traced loop as a JSON document.
func writeTrace(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
