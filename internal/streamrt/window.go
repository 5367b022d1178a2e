package streamrt

import "time"

// WindowState is the per-key state of a windowed operator: the open
// pane aggregates indexed by pane sequence number (pane n covers job
// time [n·slide, (n+1)·slide)), plus the firing watermark. It is the
// value stored in the ordinary keyed state maps, so Rescale snapshots
// and repartitions it with its key group like any other keyed state —
// window contents survive redeployments exactly once, and tests can
// inspect residual panes after Stop.
type WindowState struct {
	// NextFire is the earliest window-end pane index not yet fired.
	// Initialized to the pane of the key's first record; advancing it
	// is what makes every window fire at most once even across
	// rescales (the watermark rides the snapshot).
	NextFire int64
	// Panes maps pane index to the pane's aggregate.
	Panes map[int64]any
}

// paneIndex returns the pane covering job time t.
func paneIndex(t float64, slide time.Duration) int64 {
	return int64(t / slide.Seconds())
}

// fireDue fires, in pane order, every window of key's state ws, held in
// its group's map st, whose end pane closed strictly before cur,
// emitting through emit. Fired panes that no longer contribute to any
// open window are dropped; a key whose panes are exhausted is removed
// from st entirely (deleting the in-range key during the caller's map
// iteration is safe in Go; the map stays, empty). Empty windows advance
// the watermark without firing.
func (in *instance) fireDue(st map[string]any, key string, ws *WindowState, cur int64, emit Emit) {
	win := in.spec.Window
	k := win.panes()
	for e := ws.NextFire; e < cur; e++ {
		if len(ws.Panes) == 0 {
			// Nothing buffered for any remaining window: skip ahead
			// and drop the key so idle keys cost nothing.
			delete(st, key)
			return
		}
		var agg any
		has := false
		for p := e - k + 1; p <= e; p++ {
			a, ok := ws.Panes[p]
			if !ok {
				continue
			}
			if !has {
				agg, has = a, true
			} else {
				agg = win.Combine(agg, a)
			}
		}
		if has {
			win.Fire(key, agg, emit)
		}
		// The oldest pane of this window has now contributed to every
		// window that spans it.
		delete(ws.Panes, e-k+1)
		ws.NextFire = e + 1
	}
}

// windowTick bounds how long an idle windowed instance waits before
// checking for due windows.
func windowTick(slide time.Duration) time.Duration {
	tick := slide / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 100*time.Millisecond {
		tick = 100 * time.Millisecond
	}
	return tick
}

// paneRecords is the windowed record step: the batch's records go into
// the per-key pane of the processing-time instant the batch arrived at;
// then, once per pane, every due window of every key fires, the firing
// work accounted as processing with the batch. Fired results carry no
// source timestamp (a fired window aggregates many records, so sinks
// take no latency sample from it).
func (in *instance) paneRecords(b *batch, vals []any, emit Emit) {
	spec := in.spec
	cur := paneIndex(in.host.now(), spec.Window.slide())
	for i := range b.msgs {
		m := &b.msgs[i]
		v := m.val
		if vals != nil {
			v = vals[i]
		}
		in.curSrc = m.src
		st := in.group(m.key)
		ws, _ := st[m.key].(*WindowState)
		if ws == nil {
			ws = &WindowState{NextFire: cur, Panes: make(map[int64]any)}
			st[m.key] = ws
		}
		ws.Panes[cur] = spec.Process(ws.Panes[cur], m.key, v, emit)
		if spec.Cost > 0 {
			in.work(spec.Cost)
		}
	}
	if cur > in.swept {
		in.curSrc = time.Time{}
		for _, st := range in.groups {
			for key, v := range st {
				if ws, ok := v.(*WindowState); ok {
					in.fireDue(st, key, ws, cur, emit)
				}
			}
		}
		in.swept = cur
	}
}
