package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

// A callRec is what one call of a cycle is held to: its simulated
// time, message and word counts, which the simulator reproduces bit
// for bit on every host and at every GOMAXPROCS, or the SHA-256 of a
// served document. Host time never enters a callRec.
type callRec struct {
	Call   string  `json:"call"`
	SimUs  float64 `json:"sim_us,omitempty"`
	Msgs   int64   `json:"msgs,omitempty"`
	Words  int64   `json:"words,omitempty"`
	SHA256 string  `json:"sha256,omitempty"`
}

// golden maps workload -> seed -> the records of one cycle. Every cycle
// of a workload repeats the same calls on the same inputs, so one cycle
// stands for all of them.
type golden map[string]map[string][]callRec

//go:embed golden.json
var embeddedGolden []byte

// loadGolden reads the golden file at path, or the copy compiled into
// the binary when path is empty.
func loadGolden(path string) (golden, error) {
	raw := embeddedGolden
	if path != "" {
		var err error
		if raw, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	return g, nil
}

func (g golden) cycle(workload string, seed int64) []callRec {
	return g[workload][strconv.FormatInt(seed, 10)]
}

func (g golden) set(workload string, seed int64, recs []callRec) {
	if g[workload] == nil {
		g[workload] = map[string][]callRec{}
	}
	g[workload][strconv.FormatInt(seed, 10)] = append([]callRec(nil), recs...)
}

func (g golden) write(path string) error {
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// diffCycle describes the first difference between a cycle's records
// and the expected ones, "" when they agree.
func diffCycle(got, want []callRec) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d calls recorded, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("call %d: got %+v, oracle has %+v", i, got[i], want[i])
		}
	}
	return ""
}

// simTotals sums the exact simulated counts of one cycle.
func simTotals(recs []callRec) (us float64, msgs, words int64) {
	for _, r := range recs {
		us += r.SimUs
		msgs += r.Msgs
		words += r.Words
	}
	return us, msgs, words
}

// numTol is how far a numeric result may sit from internal/serial's.
const numTol = 1e-8

// closeTo reports whether got is within numTol of want, relative to
// want's magnitude once that exceeds 1.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= numTol*math.Max(1, math.Abs(want))
}

// sameVec checks a computed vector against its serial reference.
func sameVec(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, serial reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if !closeTo(got[i], want[i]) {
			return fmt.Errorf("%s[%d] = %g, serial reference %g", what, i, got[i], want[i])
		}
	}
	return nil
}
