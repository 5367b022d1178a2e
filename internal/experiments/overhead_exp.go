package experiments

import (
	"fmt"
	"math"
	"strings"

	"ds2/internal/controlloop"
	"ds2/internal/dataflow"
	"ds2/internal/engine"
	"ds2/internal/nexmark"
)

// OverheadRow compares vanilla vs instrumented latency for one query
// on one system (Fig. 10).
type OverheadRow struct {
	Query   string
	System  string
	Vanilla controlloop.Quantiles
	Instr   controlloop.Quantiles
	// OverheadPct is the relative median-latency increase.
	OverheadPct float64
}

// OverheadResult is the Fig. 10 suite.
type OverheadResult struct{ Rows []OverheadRow }

func (r OverheadResult) String() string {
	var sb strings.Builder
	sb.WriteString("== Fig. 10: instrumentation overhead (vanilla vs instr) ==\n")
	sb.WriteString("query\tsystem\tvanilla p50/p99 (s)\tinstr p50/p99 (s)\toverhead\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%s\t%s\t%.4f/%.4f\t%.4f/%.4f\t%+.1f%%\n",
			row.Query, row.System,
			row.Vanilla.P50, row.Vanilla.P99,
			row.Instr.P50, row.Instr.P99,
			row.OverheadPct)
	}
	return sb.String()
}

// RunOverhead reproduces Fig. 10: every query runs for `horizon`
// seconds twice — instrumentation off and on — at a configuration
// with enough headroom to absorb the instrumentation cost, exactly as
// the paper's fixed testbed configurations had. The instrumentation
// cost model inflates every per-record cost by the configured
// fraction, which surfaces as a latency penalty.
//
// The (query, system) grid fans out across the worker budget: one
// task per row, each running its vanilla and instrumented arms. Rows
// are assembled in (query, flink-then-timely) order.
func RunOverhead(horizon float64) (*OverheadResult, error) {
	if horizon <= 0 {
		horizon = 120
	}
	queries := nexmark.QueryNames()
	res := &OverheadResult{Rows: make([]OverheadRow, 2*len(queries))}
	err := forEach(len(res.Rows), func(i int) error {
		q := queries[i/2]
		if i%2 == 0 {
			row, err := overheadFlink(q, horizon)
			if err != nil {
				return err
			}
			res.Rows[i] = row
			return nil
		}
		row, err := overheadTimely(q, horizon)
		if err != nil {
			return err
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// overheadFlink measures one query's Fig. 10 Flink row (per-record
// latency, vanilla vs instrumented).
func overheadFlink(q string, horizon float64) (OverheadRow, error) {
	row := OverheadRow{Query: q, System: "flink"}
	w, err := nexmark.Query(q, nexmark.SystemFlink)
	if err != nil {
		return row, err
	}
	par, err := decideOnce(w)
	if err != nil {
		return row, err
	}
	// Headroom so the instrumented run still keeps up.
	for op, p := range par {
		if w.Graph.IndexOf(op) >= w.Graph.NumSources() {
			par[op] = int(math.Ceil(float64(p)*1.15)) + 1
		}
	}
	for _, instr := range []bool{false, true} {
		e, err := engine.New(w.Graph, w.Specs, w.Sources, par, engine.Config{
			Mode:               engine.ModeFlink,
			Tick:               0.05,
			QueueCapacity:      20_000,
			FlushBufferRecords: 4000,
			Instrumented:       instr,
			InstrOverhead:      0.08,
		})
		if err != nil {
			return row, err
		}
		e.RunInterval(30)
		st := e.RunInterval(horizon)
		if instr {
			row.Instr = controlloop.LatencyQuantiles(st.Latencies)
		} else {
			row.Vanilla = controlloop.LatencyQuantiles(st.Latencies)
		}
	}
	row.OverheadPct = pctDelta(row.Vanilla.P50, row.Instr.P50)
	return row, nil
}

// overheadTimely measures one query's Fig. 10 Timely row (per-epoch
// latency, vanilla vs instrumented).
func overheadTimely(q string, horizon float64) (OverheadRow, error) {
	row := OverheadRow{Query: q, System: "timely"}
	wt, err := nexmark.Query(q, nexmark.SystemTimely)
	if err != nil {
		return row, err
	}
	for _, instr := range []bool{false, true} {
		e, err := engine.New(wt.Graph, wt.Specs, wt.Sources,
			dataflow.UniformParallelism(wt.Graph, 1),
			engine.Config{
				Mode:          engine.ModeTimely,
				Tick:          0.01, // fine grain: epoch deltas are sub-50ms
				Workers:       wt.Indicated + 2,
				EpochSize:     1,
				Instrumented:  instr,
				InstrOverhead: 0.12,
			})
		if err != nil {
			return row, err
		}
		e.RunInterval(10)
		st := e.RunInterval(horizon)
		if instr {
			row.Instr = controlloop.EpochQuantiles(st.EpochLatencies)
		} else {
			row.Vanilla = controlloop.EpochQuantiles(st.EpochLatencies)
		}
	}
	row.OverheadPct = pctDelta(row.Vanilla.P50, row.Instr.P50)
	return row, nil
}

func pctDelta(vanilla, instr float64) float64 {
	if vanilla <= 0 {
		return 0
	}
	return (instr - vanilla) / vanilla * 100
}
