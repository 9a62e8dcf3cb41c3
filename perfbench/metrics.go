package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// minTail is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minTail = 10

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal metric unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and the
// number of samples strictly beyond it. It fails when fewer than minTail
// samples lie beyond the rank, so a reported tail always rests on data.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", p*100, n)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minTail && p > 0.5 {
		return 0, fmt.Errorf("percentile p%g of %d samples: only %d beyond it, need %d", p*100, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the 50th percentile by the same nearest-rank rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m, _ := percentile(xs, 0.5) // never fails for p=0.5 and n>0
	return m
}

// failRatio is failures over attempts; zero attempts is a benchmark bug.
func failRatio(attempted, failed int) (float64, error) {
	if attempted <= 0 {
		return 0, fmt.Errorf("fail ratio: %d attempts", attempted)
	}
	if failed < 0 || failed > attempted {
		return 0, fmt.Errorf("fail ratio: %d failures of %d attempts", failed, attempted)
	}
	return float64(failed) / float64(attempted), nil
}

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int     // sample count behind the figure (0 = a single measurement)
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics accumulates named figures, rejecting bad names and duplicates.
type metrics struct {
	m   map[string]metric
	err error
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name, unit string, v float64, samples int) {
	switch {
	case ms.err != nil:
	case !validName(name):
		ms.err = fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
	case !validUnit(unit):
		ms.err = fmt.Errorf("metric %s: bad unit %q", name, unit)
	case math.IsNaN(v) || math.IsInf(v, 0):
		ms.err = fmt.Errorf("metric %s: value %v is not finite", name, v)
	default:
		if _, dup := ms.m[name]; dup {
			ms.err = fmt.Errorf("metric %s reported twice", name)
			return
		}
		ms.m[name] = metric{Value: v, Unit: unit, samples: samples}
	}
}

// dist reports xs as <name>_p50 and <name>_p90 (same unit, n samples).
func (ms *metrics) dist(name, unit string, xs []float64, p90 bool) {
	ms.set(name+"_p50", unit, median(xs), len(xs))
	if !p90 || ms.err != nil {
		return
	}
	v, err := percentile(xs, 0.9)
	if err != nil {
		ms.err = fmt.Errorf("%s_p90: %w", name, err)
		return
	}
	ms.set(name+"_p90", unit, v, len(xs))
}

// ratio returns num/den, or 0 when the layer did no work (den == 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// writeTable prints a human-readable metric listing with sample counts.
func writeTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		n2 := ""
		if m.samples > 0 {
			n2 = " (n=" + strconv.Itoa(m.samples) + ")"
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s%s\n", n, m.Value, m.Unit, n2)
	}
}

// emit prints the table, then the verdict line as the last line of stdout.
func emit(r result) error {
	writeTable(os.Stdout, r.Metrics)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", line)
	return err
}
