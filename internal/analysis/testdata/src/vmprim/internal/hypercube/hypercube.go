// Package hypercube is a typecheck-only stub of the real simulator
// package for the analyzer fixtures: the same import path, type name
// and method signatures, and no behavior. The analyzers match calls
// by package path and name, so code written against this stub is
// classified exactly as code written against the real package.
package hypercube

// Proc mirrors the real per-processor handle.
type Proc struct{}

func (p *Proc) ID() int                                        { return 0 }
func (p *Proc) Dim() int                                       { return 0 }
func (p *Proc) P() int                                         { return 0 }
func (p *Proc) FullMask() int                                  { return 0 }
func (p *Proc) Neighbor(d int) int                             { return 0 }
func (p *Proc) GetBuf(n int) []float64                         { return nil }
func (p *Proc) Recycle(buf []float64)                          {}
func (p *Proc) Send(d, tag int, words []float64)               {}
func (p *Proc) SendOwned(d, tag int, buf []float64)            {}
func (p *Proc) Recv(d, wantTag int) []float64                  { return nil }
func (p *Proc) Exchange(d, tag int, words []float64) []float64 { return nil }
func (p *Proc) ExchangeAll(dims []int, tag int, payloads [][]float64) [][]float64 {
	return nil
}
func (p *Proc) SendOwnedParts(d, tag int, parts [][]float64) {}
func (p *Proc) RecvParts(d, wantTag int, dst [][]float64) [][]float64 {
	return dst
}
func (p *Proc) Barrier(mask, tag int) {}
func (p *Proc) BeginSpan(name string) {}
func (p *Proc) EndSpan()              {}
func (p *Proc) SpanPredict(t float64) {}
func (p *Proc) SpanNote(note string)  {}
func (p *Proc) Compute(flops int)     {}
func (p *Proc) Profiling() bool       { return false }

type Machine struct{}

func (m *Machine) Run(body func(p *Proc)) (float64, error) { return 0, nil }
func (m *Machine) Close()                                  {}
