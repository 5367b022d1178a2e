package streamrt

import (
	"sync"
	"sync/atomic"
	"time"

	"ds2/internal/dataflow"
)

// host runs operator instances in this process: goroutine-per-instance
// workers exchanging batches over bounded channels. It is the local
// placement of a single-process Job, and what a Worker runs its share
// of a distributed deployment on — there with a distContext, which
// filters the instance set by the coordinator's assignment, sends
// remote edges through the transport and stripes the source sequence
// space. Every dist branch in deployLocked is a nil check, and none of
// them concerns state: routers and shares arrive cut.
type host struct {
	pipe  *Pipeline
	cfg   Config
	epoch time.Time // job time zero; job time = time.Since(epoch)
	// obs holds the pre-resolved metric handles when Config.Metrics is
	// set; nil disables all telemetry.
	obs  *jobObs
	dist *distContext

	// batches recycles exchange batches host-wide: receivers return
	// every batch they finish, so the steady-state exchange allocates
	// nothing per record.
	batches sync.Pool

	mu   sync.Mutex
	gen  uint32
	dep  *deployment       // nil between a drain and the next deploy
	seqs map[string]*int64 // per-source sequence counters, shared across generations
}

// newHost returns a host with nothing deployed. seqs, when nil, starts
// every source's counter at zero; a Worker passes its own so they
// outlive the host.
func newHost(pipe *Pipeline, cfg Config, epoch time.Time, o *jobObs, dc *distContext, seqs map[string]*int64) *host {
	if seqs == nil {
		seqs = make(map[string]*int64, len(pipe.sources))
		for name := range pipe.sources {
			seqs[name] = new(int64)
		}
	}
	return &host{pipe: pipe, cfg: cfg, epoch: epoch, obs: o, dist: dc, seqs: seqs}
}

// now returns the current job time in seconds.
func (h *host) now() float64 { return time.Since(h.epoch).Seconds() }

// getBatch takes an empty batch from the pool (or allocates one sized
// for BatchSize records).
func (h *host) getBatch() *batch {
	if b, ok := h.batches.Get().(*batch); ok {
		return b
	}
	return &batch{
		msgs: make([]message, 0, h.cfg.BatchSize),
		buf:  make([]byte, 0, h.cfg.BatchSize*32),
	}
}

// putBatch resets and recycles a processed batch. Message values are
// cleared so the pool does not pin records alive. A batch that arrived
// over a transport link returns one flow-control credit to its sender:
// recycling is the cross-process analogue of freeing a channel slot.
func (h *host) putBatch(b *batch) {
	if b.from.link != nil {
		b.from.link.sendCredit(creditMsg{gen: b.from.gen, op: b.from.op, inst: b.from.inst, credits: 1})
		b.from = recvOrigin{}
	}
	clear(b.msgs)
	b.msgs = b.msgs[:0]
	b.buf = b.buf[:0]
	h.batches.Put(b)
}

// deployment is one generation of running instances; a rescale tears
// one down and builds the next.
type deployment struct {
	stopSources chan struct{}
	wg          sync.WaitGroup // every instance goroutine
	insts       map[string][]*instance
	// routers holds every keyed operator's router: what the generation's
	// senders route by, and the operators whose state a drain collects.
	routers map[string]*router
	// first resolves when the deployment processes its first record —
	// the end of a rescale's downtime window. Always allocated (one
	// channel per deploy); cancelled at teardown so waiters never leak.
	first *firstRecord
}

// deployLocked builds channels and instances for generation gen at par
// and starts every worker. routers and shares are what the cut made of
// the previous generation's keyed state: per keyed operator the router —
// the same in every process, so a key's records and its state can never
// disagree on the owning instance — and the group maps (see parts), of
// which every instance hosted here takes its range's subslice. Callers
// hold h.mu.
func (h *host) deployLocked(gen uint32, par dataflow.Parallelism, routers map[string]*router, shares parts[any]) {
	g := h.pipe.graph
	dep := &deployment{
		stopSources: make(chan struct{}),
		insts:       make(map[string][]*instance, g.NumOperators()),
		routers:     routers,
		first:       newFirstRecord(),
	}

	// Input queues and their gates, one per hosted non-source instance.
	chans := make(map[string][]chan *batch, g.NumOperators())
	gates := make(map[string][]*gate, g.NumOperators())
	dc := h.dist
	hosted := func(op string, k int) bool { return dc == nil || dc.assign[op][k] == dc.worker }
	// In a distributed deployment a receiver's channel also buffers the
	// remote senders' credit windows, so remote batches in flight alone
	// never fill it. Local senders share it, though: behind a slow
	// consumer the transport read loop can wait for a slot as they do.
	capacity := h.cfg.ChannelCapacity
	if dc != nil {
		capacity += remoteWindow(&h.cfg) * (dc.workers - 1)
	}
	// Per downstream operator, the sender-side credit gates toward
	// remotely hosted instances.
	remotes := make(map[string][]*remoteDest)
	for i := 0; i < g.NumOperators(); i++ {
		op := g.Operator(i)
		if op.Role == dataflow.RoleSource {
			continue
		}
		cs := make([]chan *batch, par[op.Name])
		gs := make([]*gate, par[op.Name])
		for k := range cs {
			if hosted(op.Name, k) {
				cs[k] = make(chan *batch, capacity)
				gs[k] = newGate(h.cfg.ChannelCapacity * h.cfg.BatchSize)
			}
		}
		chans[op.Name], gates[op.Name] = cs, gs
		if dc != nil {
			rds := make([]*remoteDest, par[op.Name])
			for k := range rds {
				w := dc.assign[op.Name][k]
				if w == dc.worker {
					continue
				}
				tokens := make(chan struct{}, remoteWindow(&h.cfg))
				for t := 0; t < cap(tokens); t++ {
					tokens <- struct{}{}
				}
				rds[k] = &remoteDest{link: dc.peers[w], opID: uint16(i), inst: uint16(k), tokens: tokens}
			}
			remotes[op.Name] = rds
		}
	}

	for i := 0; i < g.NumOperators(); i++ {
		op := g.Operator(i)
		p := par[op.Name]
		var outs []outEdge
		for _, d := range g.Downstream(i) {
			down := g.Operator(d)
			spec := h.pipe.ops[down.Name]
			oe := outEdge{
				op:     down.Name,
				keyed:  spec.Keyed,
				enc:    appendEncoder(spec.Codec),
				router: routers[down.Name],
				chans:  chans[down.Name],
				gates:  gates[down.Name],
			}
			if dc != nil {
				oe.gen = dc.gen
				oe.remote = remotes[down.Name]
			}
			outs = append(outs, oe)
		}
		for k := 0; k < p; k++ {
			if !hosted(op.Name, k) {
				continue
			}
			// Each instance gets its own edge copies: the per-edge
			// round-robin cursor and the pending output batches are
			// worker-goroutine state; the cursor is seeded with the
			// instance index to spread streams across senders.
			myOuts := append([]outEdge(nil), outs...)
			for e := range myOuts {
				myOuts[e].rr = k
				myOuts[e].pend = make([]*batch, len(myOuts[e].chans))
			}
			in := &instance{
				host:  h,
				op:    op.Name,
				idx:   k,
				sink:  op.Role == dataflow.RoleSink,
				outs:  myOuts,
				first: dep.first,
			}
			if in.sink && h.obs != nil {
				in.latHist = h.obs.latHist(op.Name)
			}
			in.local.DownWait = make([]time.Duration, len(myOuts))
			if op.Role == dataflow.RoleSource {
				in.src = h.pipe.sources[op.Name]
				in.seq = h.seqs[op.Name]
				in.nsrc = p
				in.seqNW = 1
				in.srcLimit = in.src.Limit
				if dc != nil {
					// Sequence blocks are striped over the workers that
					// actually host an instance of this source — a
					// worker with no instances would own blocks nobody
					// ever emits.
					hosts := hostingWorkers(dc.assign[op.Name])
					rank := 0
					for i, w := range hosts {
						if w == dc.worker {
							rank = i
						}
					}
					in.seqNW = len(hosts)
					in.seqWorker = rank
					in.seqBlock = h.cfg.SourceSeqBlock
					in.srcLimit = localSeqLimit(in.src.Limit, rank, len(hosts), h.cfg.SourceSeqBlock)
					in.startGate = dc.start
				}
			} else {
				in.spec = h.pipe.ops[op.Name]
				in.in, in.gate = chans[op.Name][k], gates[op.Name][k]
				for _, u := range g.Upstream(i) {
					in.upstream += par[g.Operator(u).Name]
				}
				if in.spec.Keyed {
					b := routers[op.Name].bounds
					in.lo, in.groups = b[k], shares[op.Name][b[k]:b[k+1]]
				}
			}
			dep.insts[op.Name] = append(dep.insts[op.Name], in)
		}
	}

	if dc != nil {
		// Publish the receive table before any instance runs: DATA and
		// CREDIT frames for this generation may arrive the moment the
		// coordinator releases the start gates, and the transport's read
		// loops resolve everything through this one atomic pointer.
		numOps := g.NumOperators()
		rt := &recvTable{
			gen:     dc.gen,
			host:    h,
			chans:   make([][]chan *batch, numOps),
			credits: make([][]chan struct{}, numOps),
		}
		for i := 0; i < numOps; i++ {
			name := g.Operator(i).Name
			rt.chans[i] = chans[name]
			if rds := remotes[name]; rds != nil {
				pools := make([]chan struct{}, len(rds))
				for k, rd := range rds {
					if rd != nil {
						pools[k] = rd.tokens
					}
				}
				rt.credits[i] = pools
			}
		}
		dc.tr.recv.Store(rt)
	}

	for _, list := range dep.insts {
		for _, in := range list {
			dep.wg.Add(1)
			go func(in *instance) {
				defer dep.wg.Done()
				if in.src != nil {
					in.runSource(dep.stopSources)
				} else {
					in.runOperator()
				}
			}(in)
		}
	}
	h.gen, h.dep = gen, dep
}

func (h *host) workers() int { return 1 }

func (h *host) validate(dataflow.Parallelism) error { return nil }

// deploy implements placement: state arrives as the group maps this host
// drained, or as a savepoint file's runs filed into group maps. Its trace
// phases are "router_rebuild", the cut of every keyed operator, and
// "restart", the start of every instance.
func (h *host) deploy(gen uint32, par dataflow.Parallelism, snap *snapshot, tr *rescaleTrace) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for src, ranks := range snap.seqs {
		atomic.StoreInt64(h.seqs[src], ranks[0])
	}
	var routers map[string]*router
	var shares parts[any]
	tr.phase(phaseRouterRebuild, func(uint64) { routers, shares = dealAll(h.pipe, snap.vals, par) })
	tr.phase(phaseRestart, func(uint64) { h.deployLocked(gen, par, routers, shares) })
	return nil
}

// drain implements placement: stop the sources and wait for every
// instance to exit, each once its upstream instances' end-of-stream
// markers are in, so every in-flight record is processed. Every keyed
// operator's group maps go back into one group-indexed list, each
// instance's at its range — their goroutines have exited, so the maps
// are safe to hand on, and the groups of instances another worker hosts
// stay nil — beside this process's sequence counters as rank 0.
func (h *host) drain(*rescaleTrace, uint64) (*snapshot, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := &snapshot{vals: make(parts[any]), seqs: make(map[string][]int64, len(h.seqs))}
	if dep := h.dep; dep != nil {
		dep.first.cancel()
		close(dep.stopSources)
		dep.wg.Wait()
		h.dep = nil
		for name := range dep.routers {
			groups := make([]map[string]any, keyGroups)
			for _, in := range dep.insts[name] {
				copy(groups[in.lo:], in.groups)
			}
			snap.vals[name] = groups
		}
	}
	for src, p := range h.seqs {
		snap.seqs[src] = []int64{atomic.LoadInt64(p)}
	}
	return snap, nil
}

// collect implements placement: every deployed instance's accumulator
// in wire form, reset so the next window starts now.
func (h *host) collect() ([]wireAcc, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dep == nil {
		return nil, nil
	}
	var out []wireAcc
	for name, list := range h.dep.insts {
		for _, in := range list {
			out = append(out, wireAcc{Op: name, Idx: in.idx, counters: in.acc.take()})
		}
	}
	return out, nil
}

// wait implements placement.
func (h *host) wait() (bool, error) {
	h.mu.Lock()
	dep := h.dep
	h.mu.Unlock()
	if dep == nil {
		return false, nil
	}
	dep.wg.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dep == dep, nil
}

// firstRec returns generation gen's first-record resolver, nil when
// that generation is not the one deployed.
func (h *host) firstRec(gen uint32) *firstRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dep == nil || h.gen != gen {
		return nil
	}
	return h.dep.first
}

func (h *host) awaitFirstRecord(gen uint32, timeout time.Duration) (int64, bool) {
	f := h.firstRec(gen)
	if f == nil {
		return 0, false
	}
	return f.wait(timeout)
}

func (h *host) close() {}
