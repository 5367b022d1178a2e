// Command bench-pairs measures a change against a base commit the way
// the benchmark's gate does: N pairs of `benchmarks/run.sh` runs of one
// workload, one in a clone of the base commit and one in this checkout,
// alternating which side runs first, at BENCHMARK.json's run length. Per
// end-to-end metric of BENCHMARK.json it prints every pair's two values,
// both sides' medians and quartiles, how many pairs the change won, and
// the operations either side failed. It reads the result JSON the
// harness writes and changes nothing under benchmarks/ (each run's files
// go to -dir).
//
//	go run ./cmd/bench-pairs -base 2bc7fe7 -workload reconfig-200k -n 10 -seeds "11 12 13"
//
// Run from the root of the checkout; `make bench-pairs` does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// result is the part of a harness result file this tool reads.
type result struct {
	Workloads []struct {
		Attempted int `json:"ops_attempted"`
		Failed    int `json:"ops_failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"workloads"`
}

func main() {
	base := flag.String("base", "", "commit to compare against (required)")
	workload := flag.String("workload", "", "benchmark workload to run (required)")
	n := flag.Int("n", 10, "pairs of runs")
	seedList := flag.String("seeds", "", "space-separated seeds, reused in order when fewer than -n (default 1..n)")
	dir := flag.String("dir", filepath.Join(os.TempDir(), "ds2-bench-pairs"), "scratch directory for the base clone and the result files")
	flag.Parse()
	if *base == "" || *workload == "" || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *workload, *n, strings.Fields(*seedList), *dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench-pairs:", err)
		os.Exit(1)
	}
}

func run(base, workload string, n int, seeds []string, dir string) error {
	var gate struct {
		RunSeconds float64                               `json:"run_seconds"`
		EndToEnd   []struct{ Name, Unit, Better string } `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &gate); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(seeds) == 0 {
		for i := 1; i <= n; i++ {
			seeds = append(seeds, strconv.Itoa(i))
		}
	}
	here, err := os.Getwd()
	if err != nil {
		return err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}
	clone := filepath.Join(dir, "base")
	if err := os.RemoveAll(clone); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, args := range [][]string{{"clone", "-q", here, clone}, {"-C", clone, "checkout", "-q", "--detach", base}} {
		if out, err := exec.Command("git", args...).CombinedOutput(); err != nil {
			return fmt.Errorf("git %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}

	sides := []string{"base", "change"}
	trees := map[string]string{"base": clone, "change": here}
	values := map[string]map[string][]float64{"base": {}, "change": {}} // side -> metric -> per pair
	attempted, failed := map[string]int{}, map[string]int{}
	used := make([]string, n)
	for i := 0; i < n; i++ {
		used[i] = seeds[i%len(seeds)]
		for k := range sides {
			side := sides[(i+k)%2] // even pairs run the base first, odd ones the change
			out := filepath.Join(dir, fmt.Sprintf("%s-%02d", side, i+1))
			if err := os.RemoveAll(out); err != nil {
				return err
			}
			cmd := exec.Command("bash", "benchmarks/run.sh", "--workload", workload, "--seed", used[i],
				"--seconds", fmt.Sprint(gate.RunSeconds), "--trace", "0", "--out", out)
			cmd.Dir = trees[side]
			if log, err := cmd.CombinedOutput(); err != nil {
				return fmt.Errorf("pair %d, %s: %v\n%s", i+1, side, err, log)
			}
			files, _ := filepath.Glob(filepath.Join(out, "*.json"))
			if len(files) != 1 {
				return fmt.Errorf("pair %d, %s: %d result files in %s", i+1, side, len(files), out)
			}
			var res result
			if data, err = os.ReadFile(files[0]); err == nil {
				err = json.Unmarshal(data, &res)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", files[0], err)
			}
			for _, w := range res.Workloads {
				attempted[side] += w.Attempted
				failed[side] += w.Failed
				for name, m := range w.Metrics {
					values[side][name] = append(values[side][name], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d seed %s: %s done\n", i+1, n, used[i], side)
		}
	}

	fmt.Printf("# %s: %d pairs, base %s vs this checkout, seeds %s\n", workload, n, base, strings.Join(used, " "))
	for _, m := range gate.EndToEnd {
		b, c := values["base"][m.Name], values["change"][m.Name]
		if len(b) != n || len(c) != n {
			continue // not a metric of this workload
		}
		fmt.Printf("\n%s (%s, %s is better)\n  %-5s %-6s %14s %14s\n", m.Name, m.Unit, m.Better, "pair", "seed", "base", "change")
		wins, ties := 0, 0
		for i := range b {
			fmt.Printf("  %-5d %-6s %14.6g %14.6g\n", i+1, used[i], b[i], c[i])
			switch {
			case b[i] == c[i]:
				ties++
			case (c[i] < b[i]) == (m.Better == "lower"):
				wins++
			}
		}
		bq1, bmed, bq3 := quartiles(b)
		cq1, cmed, cq3 := quartiles(c)
		fmt.Printf("  base   median %.6g (q1 %.6g, q3 %.6g)\n  change median %.6g (q1 %.6g, q3 %.6g)\n", bmed, bq1, bq3, cmed, cq1, cq3)
		fmt.Printf("  change better in %d/%d pairs, %d ties; medians %.6g apart, base inter-quartile range %.6g\n",
			wins, n, ties, cmed-bmed, bq3-bq1)
	}
	fmt.Printf("\nops_failed: base %d of %d, change %d of %d\n", failed["base"], attempted["base"], failed["change"], attempted["change"])
	return nil
}

// quartiles returns q1, the median and q3 as Python's
// statistics.quantiles(vals, n=4) does (the exclusive method) — the
// arithmetic of the harness and of the gate. Below two values all three
// are the value itself.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
