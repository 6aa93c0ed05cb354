package metrics

import (
	"fmt"
	"math"
)

// Snapshot algebra for the serving layer: the server's /metrics
// endpoint is Merge over every finished run's metrics plus its own
// serving registry. Merge and Quantile operate on immutable snapshots,
// never on live registries, so they need no locking and cannot perturb
// the source.

// Merge folds snapshots into one: counters and histogram buckets sum,
// gauges take the last snapshot's value (most recent wins), and
// metrics keep first-seen order. Merging the same name with different
// types or histogram bucket layouts panics — that is a registry-layout
// bug, not a data condition.
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{}
	index := make(map[string]int)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for i := range s.Metrics {
			m := &s.Metrics[i]
			j, seen := index[m.Name]
			if !seen {
				index[m.Name] = len(out.Metrics)
				out.Metrics = append(out.Metrics, cloneMetric(m))
				continue
			}
			acc := &out.Metrics[j]
			if acc.Type != m.Type {
				panic(fmt.Sprintf("metrics: Merge %s: type %s vs %s", m.Name, acc.Type, m.Type))
			}
			switch m.Type {
			case "counter":
				acc.Value += m.Value
			case "gauge":
				acc.Value = m.Value
			case "histogram":
				if len(acc.Buckets) != len(m.Buckets) {
					panic(fmt.Sprintf("metrics: Merge %s: %d vs %d buckets", m.Name, len(acc.Buckets), len(m.Buckets)))
				}
				for b := range m.Buckets {
					if acc.Buckets[b].Le != m.Buckets[b].Le {
						panic(fmt.Sprintf("metrics: Merge %s: bucket %d bound %g vs %g",
							m.Name, b, acc.Buckets[b].Le, m.Buckets[b].Le))
					}
					acc.Buckets[b].Count += m.Buckets[b].Count
				}
				acc.Sum += m.Sum
				acc.Count += m.Count
			}
			if acc.Help == "" {
				acc.Help = m.Help
			}
		}
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the named
// histogram by linear interpolation inside the owning cumulative
// bucket, the same estimate Prometheus's histogram_quantile computes.
// Observations in the +Inf bucket clamp to the largest finite bound.
// The second result is false if the name is missing, is not a
// histogram, or has no observations.
func (s *Snapshot) Quantile(name string, q float64) (float64, bool) {
	var m *MetricValue
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			m = &s.Metrics[i]
			break
		}
	}
	if m == nil || m.Type != "histogram" || m.Count == 0 || len(m.Buckets) == 0 {
		return 0, false
	}
	q = math.Min(1, math.Max(0, q))
	rank := q * float64(m.Count)
	for i, b := range m.Buckets {
		if float64(b.Count) < rank {
			continue
		}
		if math.IsInf(b.Le, 1) {
			// No finite upper edge to interpolate toward; clamp to the
			// largest finite bound (or 0 for a single +Inf bucket).
			if i == 0 {
				return 0, true
			}
			return m.Buckets[i-1].Le, true
		}
		lower, prevCum := 0.0, int64(0)
		if i > 0 {
			lower = m.Buckets[i-1].Le
			prevCum = m.Buckets[i-1].Count
		}
		inBucket := b.Count - prevCum
		if inBucket == 0 {
			return b.Le, true
		}
		return lower + (b.Le-lower)*(rank-float64(prevCum))/float64(inBucket), true
	}
	// Unreachable for well-formed snapshots (last bucket holds Count),
	// but degrade gracefully.
	return m.Buckets[len(m.Buckets)-1].Le, true
}

// cloneMetric deep-copies one metric so snapshot algebra never aliases
// its inputs' bucket slices.
func cloneMetric(m *MetricValue) MetricValue {
	c := *m
	if m.Buckets != nil {
		c.Buckets = append([]BucketCount(nil), m.Buckets...)
	}
	return c
}
