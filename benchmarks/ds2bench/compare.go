package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// side pools the result files of one side of a comparison: per
// (workload, end-to-end metric) the value each run reported, and the
// operation counts.
type side struct {
	values    map[string]map[string][]float64
	within    map[string]map[string][]float64 // raw per-rep values, used when a side is a single run
	attempted map[string]int
	failed    map[string]int
}

func loadSide(paths []string) (*side, error) {
	s := &side{
		values: make(map[string]map[string][]float64), within: make(map[string]map[string][]float64),
		attempted: make(map[string]int), failed: make(map[string]int),
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, w := range f.Workloads {
			if w.Traced {
				continue // end-to-end metrics come from untraced runs only
			}
			if s.values[w.Name] == nil {
				s.values[w.Name] = make(map[string][]float64)
				s.within[w.Name] = make(map[string][]float64)
			}
			s.attempted[w.Name] += w.Attempted
			s.failed[w.Name] += w.Failed
			for name, m := range w.Metrics {
				s.values[w.Name][name] = append(s.values[w.Name][name], m.Value)
				s.within[w.Name][name] = append(s.within[w.Name][name], m.Raw...)
			}
		}
	}
	return s, nil
}

// spreadOf is the side's quartile spread for a metric: across runs when
// the side pools several, else across the single run's repetitions.
func (s *side) spreadOf(workload, metric string) float64 {
	if v := s.values[workload][metric]; len(v) > 1 {
		return spread(v)
	}
	return spread(s.within[workload][metric])
}

func (s *side) failedShare(workload string) float64 {
	if s.attempted[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.attempted[workload])
}

// verdict classifies one (workload, metric) pair. unresolved: either
// side's own spread is wider than the bound, so a difference of that
// size cannot be told from noise. regression: b's median is worse than
// a's by more than the bound.
func verdict(worse, spreadA, spreadB, bound float64) string {
	switch {
	case spreadA > bound || spreadB > bound:
		return "unresolved"
	case worse > bound:
		return "REGRESSION"
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference and the bound, and returns the process exit
// code: 1 when b is worse than a beyond a bound or fails a higher share
// of its operations, 0 otherwise.
func compareFiles(w io.Writer, a, b []string) int {
	sa, err := loadSide(a)
	if err == nil {
		var sb *side
		if sb, err = loadSide(b); err == nil {
			return compareSides(w, sa, sb)
		}
	}
	fmt.Fprintln(w, "ds2bench -compare:", err)
	return 2
}

func compareSides(w io.Writer, a, b *side) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %8s %6s %7s %7s  %s\n",
		"workload", "metric", "a", "b", "worse", "bound", "iqr a", "iqr b", "verdict")
	for _, wl := range workloadNames {
		if a.values[wl] == nil || b.values[wl] == nil {
			continue
		}
		for _, s := range endToEnd {
			va, vb := a.values[wl][s.Name], b.values[wl][s.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worsening(ma, mb, s.Higher)
			spA, spB := a.spreadOf(wl, s.Name), b.spreadOf(wl, s.Name)
			v := verdict(worse, spA, spB, s.Bound)
			if v == "REGRESSION" {
				code = 1
			}
			if b.failed[wl] > 0 {
				v = "FAILED-OPS" // a failed operation misses every limit
			}
			fmt.Fprintf(w, "%-16s %-24s %14.6g %14.6g %+7.1f%% %5.0f%% %6.1f%% %6.1f%%  %s\n",
				wl, s.Name, ma, mb, 100*worse, 100*s.Bound, 100*spA, 100*spB, v)
		}
		if fa, fb := a.failedShare(wl), b.failedShare(wl); fb > fa {
			fmt.Fprintf(w, "%-16s failed share %.4f -> %.4f\n", wl, fa, fb)
			code = 1
		}
	}
	return code
}
