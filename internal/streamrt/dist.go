package streamrt

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ds2/internal/dataflow"
	"ds2/internal/obs"
)

// Distributed streamrt: the remote placement. A Job built by NewCluster
// (the coordinator, living in the controller process) drives N Worker
// processes, each running a subset of the pipeline's operator instances
// on a host. Everything rides the framed transport (frame.go,
// transport.go): batches as DATA frames between workers (an empty one is
// an end-of-stream marker), flow-control CREDIT frames back, and a JSON
// control protocol from the coordinator, whose client side
// (remote) and server side (Worker.handleControl) are both in this
// file. The coordinator, the interval build and the key-group routers are
// the single-process job's — so DS2 decisions, convergence behaviour
// and sink results are identical whether a pipeline runs in one process
// or many.

// Control request kinds.
const (
	ctrlDeploy  = byte(1)
	ctrlStart   = byte(2)
	ctrlDrain   = byte(3)
	ctrlCollect = byte(4)
	ctrlWait    = byte(5)
	// ctrlFirstRec polls whether the current generation has processed
	// its first record — the tail of a rescale trace. Non-blocking by
	// design: the coordinator polls, so the handler never parks a
	// control goroutine for seconds.
	ctrlFirstRec = byte(6)
)

// distContext is one worker process's view of one deployment
// generation, threaded through host.deployLocked.
type distContext struct {
	worker  int
	workers int
	gen     uint32
	tr      *transport
	assign  map[string][]int // operator -> instance -> hosting worker
	peers   []*link          // outbound data link per worker index (nil for self)
	start   chan struct{}    // closed by the coordinator's START
	started bool
}

// traceCtx propagates a rescale trace's identity with a control
// request: the trace ID and the coordinator span covering this RPC. A
// worker that receives a non-zero traceCtx times its handler phases and
// ships them back as wireSpans on the reply; the coordinator re-bases
// them under the parent span (rescaleTrace.child), so one rescale
// yields one causally-ordered cross-process timeline.
type traceCtx struct {
	ID   string `json:"id,omitempty"`
	Span uint64 `json:"span,omitempty"`
}

// wireSpan is a worker-recorded span in wire form. Offsets are
// nanoseconds from the worker's handler start — never absolute worker
// clock readings, which would smuggle cross-host clock skew into the
// timeline.
type wireSpan struct {
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// Control protocol bodies (JSON inside CONTROL/REPLY frames).
type deployReq struct {
	Workload    string           `json:"workload"`
	Gen         uint32           `json:"gen"`
	Worker      int              `json:"worker"`
	Workers     int              `json:"workers"`
	Peers       []string         `json:"peers"` // data addr per worker index
	Parallelism map[string]int   `json:"parallelism"`
	Assign      map[string][]int `json:"assign"`
	// Bounds and Shares are the coordinator's cut: every keyed
	// operator's n+1 key-group bounds (see router) — the same on every
	// worker — and, indexed by instance, the encoded state of the
	// instances this worker hosts (null for the others).
	Bounds map[string][]int       `json:"bounds,omitempty"`
	Shares map[string][]wireState `json:"shares,omitempty"`
	// Seqs, when present, overwrites this worker's per-source local
	// sequence counters before the generation starts. A restore from a
	// savepoint is what that matters for; after a drain it writes back
	// the values the worker process already holds, and the first deploy
	// sends none.
	Seqs    map[string]int64 `json:"seqs,omitempty"`
	Elapsed float64          `json:"elapsed"` // coordinator job time, aligning worker epochs
	Config  Config           `json:"config"`
	Trace   traceCtx         `json:"trace,omitempty"`
}

type deployResp struct {
	Spans []wireSpan `json:"spans,omitempty"`
}

type startReq struct {
	Gen uint32 `json:"gen"`
}

type drainReq struct {
	Trace traceCtx `json:"trace,omitempty"`
}

type drainResp struct {
	// States is the drained instances' keyed state, encoded, indexed by
	// instance (null for the instances other workers host).
	States map[string][]map[string][]byte `json:"states,omitempty"`
	// Seqs reports the worker's per-source local sequence counters at
	// the drain, so a coordinator cutting a savepoint can persist the
	// exact resume point of every stripe.
	Seqs  map[string]int64 `json:"seqs,omitempty"`
	Spans []wireSpan       `json:"spans,omitempty"`
}

// firstRecReq/firstRecResp poll the first-record instant of generation
// Gen: At is 0 while pending, -1 when there is nothing to wait for
// (cancelled, other generation, nothing deployed), else the wall-clock
// unix-nano instant the worker processed its first record.
type firstRecReq struct {
	Gen uint32 `json:"gen"`
}

type firstRecResp struct {
	At int64 `json:"at"`
}

type collectResp struct {
	Accs  []wireAcc   `json:"accs,omitempty"`
	Links []LinkStats `json:"links,omitempty"`
}

type waitResp struct {
	Natural bool `json:"natural"`
}

// validateDistributed checks that a pipeline can cross process
// boundaries: every exchange needs a Codec (values travel as bytes),
// every keyed operator a StateCodec (rescale snapshots travel as
// bytes), and the frame header's u16 fields bound the shape.
func validateDistributed(pipe *Pipeline, par dataflow.Parallelism, workers int) error {
	if workers < 1 {
		return errors.New("streamrt: distributed deployment needs at least one worker")
	}
	if workers > 0xFFFF {
		return fmt.Errorf("streamrt: %d workers exceeds the transport's limit", workers)
	}
	if n := pipe.graph.NumOperators(); n > 0xFFFF {
		return fmt.Errorf("streamrt: %d operators exceeds the frame header's limit", n)
	}
	for name, p := range par {
		if p > 0xFFFF {
			return fmt.Errorf("streamrt: operator %q parallelism %d exceeds the frame header's limit", name, p)
		}
	}
	for name, spec := range pipe.ops {
		if spec.Codec == nil {
			return fmt.Errorf("streamrt: operator %q has no Codec; distributed exchanges move bytes", name)
		}
		if spec.Keyed && spec.State == nil {
			return fmt.Errorf("streamrt: keyed operator %q has no StateCodec; distributed rescales move state as bytes", name)
		}
	}
	return nil
}

// PlanPlacement maps every operator instance to a worker process:
// instance k goes to worker k % workers. Aligned indices across
// operators keep chains local (instance k of a source feeds instance k
// of a round-robin-preferring downstream on the same worker), and every
// worker hosts ⌈p/W⌉ or ⌊p/W⌋ instances of each operator.
func PlanPlacement(par dataflow.Parallelism, workers int) map[string][]int {
	out := make(map[string][]int, len(par))
	for name, p := range par {
		a := make([]int, p)
		for k := range a {
			a[k] = k % workers
		}
		out[name] = a
	}
	return out
}

// Worker hosts one process's share of distributed deployments: it
// listens for the coordinator's control connection and its peers' data
// links, and runs each generation's share on a host filtered by the
// coordinator's assignment — the server side of the remote placement,
// answering each control request with the host method the local
// placement calls directly. One Worker serves any number of successive
// generations and jobs; the per-source sequence counters persist across
// generations of the same workload, so rescales never replay or skip a
// record.
type Worker struct {
	index int
	pipes map[string]*Pipeline
	reg   *obs.Registry
	tr    *transport

	mu       sync.Mutex
	workload string
	seqs     map[string]*int64
	host     *host              // the live generation; nil between drain and deploy
	routers  map[string]*router // host's, to split its drained state by instance
	winStart float64            // job time of the last collect, for the worker's own gauges
}

// NewWorker creates a worker with the given index (its position in the
// cluster's worker list — placement and hello frames identify it by
// this) serving the named pipelines. reg, when non-nil, exports the
// worker's runtime and per-link telemetry.
func NewWorker(index int, pipes map[string]*Pipeline, reg *obs.Registry) *Worker {
	return &Worker{index: index, pipes: pipes, reg: reg}
}

// Listen binds the worker's transport (control + data on one listener)
// and returns the bound address.
func (w *Worker) Listen(addr string) (string, error) {
	if w.tr != nil {
		return "", errors.New("streamrt: worker already listening")
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	w.tr = newTransport(uint32(w.index), lis, w.reg)
	w.tr.handleControl = w.handleControl
	w.tr.serve()
	return w.tr.Addr(), nil
}

// Addr returns the transport's listen address ("" before Listen).
func (w *Worker) Addr() string {
	if w.tr == nil {
		return ""
	}
	return w.tr.Addr()
}

// Close tears the worker's transport down. Any deployed job should have
// been drained by the coordinator first.
func (w *Worker) Close() {
	if w.tr != nil {
		w.tr.close()
	}
}

// handleControl serves one coordinator request (on its own goroutine —
// drain and wait block).
func (w *Worker) handleControl(l *link, m ctrlMsg) {
	var body []byte
	var err error
	switch m.kind {
	case ctrlDeploy:
		body, err = w.deploy(m.body)
	case ctrlStart:
		body, err = w.start(m.body)
	case ctrlDrain:
		body, err = w.drain(m.body)
	case ctrlCollect:
		body, err = w.collect()
	case ctrlWait:
		body, err = w.wait()
	case ctrlFirstRec:
		body, err = w.firstRecord(m.body)
	default:
		err = fmt.Errorf("streamrt: unknown control kind %d", m.kind)
	}
	if err != nil {
		eb, _ := json.Marshal(map[string]string{"error": err.Error()})
		l.sendCtrl(frameReply, ctrlMsg{req: m.req, kind: 0, body: eb})
		return
	}
	if body == nil {
		body = []byte("{}")
	}
	l.sendCtrl(frameReply, ctrlMsg{req: m.req, kind: 1, body: body})
}

// deploy builds this worker's share of a new generation. Sources stay
// gated until the coordinator's START — by then every worker has
// installed its receive table, so no frame can arrive unroutable.
func (w *Worker) deploy(body []byte) ([]byte, error) {
	h0 := time.Now()
	var req deployReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("streamrt: bad deploy request: %w", err)
	}
	pipe := w.pipes[req.Workload]
	if pipe == nil {
		return nil, fmt.Errorf("streamrt: unknown workload %q", req.Workload)
	}
	par := dataflow.Parallelism(req.Parallelism)
	if err := par.Validate(pipe.graph); err != nil {
		return nil, err
	}
	if err := validateDistributed(pipe, par, req.Workers); err != nil {
		return nil, err
	}
	if req.Worker != w.index {
		return nil, fmt.Errorf("streamrt: deploy addressed to worker %d, this is worker %d", req.Worker, w.index)
	}
	routers, err := routersFrom(pipe, par, req.Bounds)
	if err != nil {
		return nil, err
	}
	shares, err := filed(pipe, func(op string) iter.Seq2[string, []byte] {
		var list []map[string][]byte
		for _, share := range req.Shares[op] {
			list = append(list, share...)
		}
		return pairs(list)
	}, decodeOpState)
	if err != nil {
		return nil, err
	}
	decoded := time.Since(h0)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.host != nil {
		return nil, errors.New("streamrt: deploy while a generation is live (drain first)")
	}
	peers := make([]*link, req.Workers)
	for i, addr := range req.Peers {
		if i == req.Worker || addr == "" {
			continue
		}
		l, err := w.tr.dialPeer(uint32(i), addr)
		if err != nil {
			return nil, err
		}
		peers[i] = l
	}
	dc := &distContext{
		worker:  req.Worker,
		workers: req.Workers,
		gen:     req.Gen,
		tr:      w.tr,
		assign:  req.Assign,
		peers:   peers,
		start:   make(chan struct{}),
	}
	cfg := req.Config.withDefaults()
	cfg.Metrics = w.reg
	var o *jobObs
	if w.reg != nil {
		// The coordinator counts rescales; a worker's page reads zero.
		o = newJobObs(w.reg, pipe, func() int { return 0 })
	}
	epoch := time.Now().Add(-time.Duration(req.Elapsed * float64(time.Second)))
	built0 := time.Since(h0)
	// The counters outlive the host, across generations of the same
	// workload; another workload starts from fresh ones.
	seqs := w.seqs
	if w.workload != req.Workload {
		seqs = nil
	}
	h := newHost(pipe, cfg, epoch, o, dc, seqs)
	h.mu.Lock()
	// Restore-on-deploy: a coordinator restoring from a savepoint ships
	// the persisted counters.
	for name, v := range req.Seqs {
		if p := h.seqs[name]; p != nil {
			atomic.StoreInt64(p, v)
		}
	}
	h.deployLocked(req.Gen, par, routers, shares)
	h.mu.Unlock()
	w.host, w.routers, w.winStart = h, routers, req.Elapsed
	w.workload, w.seqs = req.Workload, h.seqs
	resp := deployResp{}
	if req.Trace.ID != "" {
		resp.Spans = []wireSpan{
			{Name: "deploy/decode_state", Start: 0, End: int64(decoded)},
			{Name: "deploy/build", Start: int64(built0), End: int64(time.Since(h0))},
		}
	}
	return json.Marshal(resp)
}

// instanceStates is a worker's drained group maps as a drainResp carries
// them: per keyed operator, one flat map of encoded states per instance
// h hosted, holding its range's keys under routers, nil for the others.
func instanceStates(h *host, vals parts[any], routers map[string]*router) (_ map[string][]map[string][]byte, err error) {
	var op, key string
	defer recoverCodec("encoding", &op, &key, &err)
	out := make(map[string][]map[string][]byte, len(vals))
	for name, groups := range vals {
		op = name
		spec, r := h.pipe.ops[op], routers[op]
		list := make([]map[string][]byte, r.n)
		for inst := range list {
			if h.dist.assign[op][inst] != h.dist.worker {
				continue
			}
			flat := make(map[string][]byte)
			for _, kv := range groups[r.bounds[inst]:r.bounds[inst+1]] {
				for k, v := range kv {
					key = k
					if flat[k], err = encodeOpState(spec, v); err != nil {
						return nil, fmt.Errorf("streamrt: encoding %s[%q]: %w", op, k, err)
					}
				}
			}
			list[inst] = flat
		}
		out[op] = list
	}
	return out, nil
}

// start releases the deployed generation's sources.
func (w *Worker) start(body []byte) ([]byte, error) {
	var req startReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("streamrt: bad start request: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.host == nil || w.host.dist.gen != req.Gen {
		return nil, fmt.Errorf("streamrt: start for generation %d, none deployed", req.Gen)
	}
	if dc := w.host.dist; !dc.started {
		dc.started = true
		close(dc.start)
	}
	return nil, nil
}

// drain stops this worker's share of the current generation — the
// coordinator broadcasts drains, so every worker's instances get their
// remote end-of-stream markers — and returns its keyed state, encoded, with the
// local sequence counters: this worker's exact resume points, which a
// savepointing coordinator persists. A traced request additionally
// gets the teardown/encode phase spans. A worker with nothing deployed
// answers with nothing.
func (w *Worker) drain(body []byte) ([]byte, error) {
	var req drainReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("streamrt: bad drain request: %w", err)
	}
	h0 := time.Now()
	w.mu.Lock()
	h, routers := w.host, w.routers
	w.mu.Unlock()
	var resp drainResp
	if h != nil {
		snap, err := h.drain(nil, 0)
		if err != nil {
			return nil, err
		}
		drained := time.Since(h0)
		w.mu.Lock()
		w.host = nil
		w.mu.Unlock()
		if resp.States, err = instanceStates(h, snap.vals, routers); err != nil {
			return nil, err
		}
		resp.Seqs = make(map[string]int64, len(snap.seqs))
		for name, ranks := range snap.seqs {
			resp.Seqs[name] = ranks[0]
		}
		if req.Trace.ID != "" {
			resp.Spans = []wireSpan{
				{Name: "drain/teardown", Start: 0, End: int64(drained)},
				{Name: "drain/encode_state", Start: int64(drained), End: int64(time.Since(h0))},
			}
		}
	}
	return json.Marshal(resp)
}

// firstRecord reports whether the given generation has processed its
// first record yet (see firstRecResp). Non-blocking: the coordinator's
// trace finisher polls.
func (w *Worker) firstRecord(body []byte) ([]byte, error) {
	var req firstRecReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("streamrt: bad first-record request: %w", err)
	}
	resp := firstRecResp{At: -1}
	w.mu.Lock()
	h := w.host
	w.mu.Unlock()
	if h != nil {
		if f := h.firstRec(req.Gen); f != nil {
			resp.At = f.value()
		}
	}
	return json.Marshal(resp)
}

// collect takes the local instances' accumulators plus the transport's
// link counters. When the worker exports its own registry, the same
// accumulators additionally feed the worker-local §3 gauges — so a
// worker's /metrics page shows its own share of the time splits and
// rates, not just the hot-path counters.
func (w *Worker) collect() ([]byte, error) {
	w.mu.Lock()
	h := w.host
	w.mu.Unlock()
	resp := collectResp{Links: w.tr.linkSnapshots()}
	if h != nil {
		resp.Accs, _ = h.collect() // a host's collect cannot fail
		w.mu.Lock()
		start, end := w.winStart, h.now()
		w.winStart = end
		w.mu.Unlock()
		if h.obs != nil && len(resp.Accs) > 0 && end > start {
			localPar := make(dataflow.Parallelism)
			for _, a := range resp.Accs {
				localPar[a.Op]++
			}
			// Best-effort: the coordinator's interval build is the one
			// that drives decisions; this one only refreshes gauges.
			if iv, err := buildInterval(h.pipe, resp.Accs, start, end, localPar, h.obs); err == nil {
				h.obs.observeInterval(iv)
			}
		}
	}
	return json.Marshal(resp)
}

// wait blocks until the current generation's local instances have all
// exited, reporting whether the exit was natural source exhaustion (as
// opposed to a drain-for-rescale).
func (w *Worker) wait() ([]byte, error) {
	w.mu.Lock()
	h := w.host
	w.mu.Unlock()
	resp := waitResp{}
	if h != nil {
		resp.Natural, _ = h.wait() // a host's wait cannot fail
	}
	return json.Marshal(resp)
}

// ctrlClient is the coordinator's end of one worker's control
// connection: a correlation table over CONTROL/REPLY frames.
type ctrlClient struct {
	worker int
	l      *link

	mu   sync.Mutex
	next uint32
	pend map[uint32]chan ctrlMsg
}

func dialCtrl(worker int, addr string) (*ctrlClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("streamrt: dialing worker %d at %s: %w", worker, addr, err)
	}
	l := newLink(conn, uint32(worker), &linkStats{label: fmt.Sprintf("ctl->w%d", worker)})
	go l.writeLoop()
	l.sendHello(helloMsg{proto: frameProto, sender: helloCoordinator})
	c := &ctrlClient{worker: worker, l: l, pend: make(map[uint32]chan ctrlMsg)}
	go c.readLoop()
	return c, nil
}

func (c *ctrlClient) readLoop() {
	br := bufio.NewReaderSize(c.l.conn, 1<<16)
	var buf []byte
	for {
		typ, payload, nbuf, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			c.l.close(err)
			return
		}
		if typ != frameReply {
			c.l.close(fmt.Errorf("streamrt: unexpected frame type %d on control client", typ))
			return
		}
		m, err := parseCtrl(payload)
		if err != nil {
			c.l.close(err)
			return
		}
		c.mu.Lock()
		ch := c.pend[m.req]
		delete(c.pend, m.req)
		c.mu.Unlock()
		if ch != nil {
			m.body = append([]byte(nil), m.body...) // payload aliases the read buffer
			ch <- m
		}
	}
}

// rpc performs one request/reply round trip. No timeout: drains and
// waits legitimately block; a dead link fails all callers promptly.
func (c *ctrlClient) rpc(kind byte, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ch := make(chan ctrlMsg, 1)
	c.mu.Lock()
	c.next++
	id := c.next
	c.pend[id] = ch
	c.mu.Unlock()
	c.l.sendCtrl(frameControl, ctrlMsg{req: id, kind: kind, body: body})
	select {
	case m := <-ch:
		if m.kind == 0 {
			var e struct {
				Error string `json:"error"`
			}
			json.Unmarshal(m.body, &e)
			return fmt.Errorf("streamrt: worker %d: %s", c.worker, e.Error)
		}
		if resp != nil {
			return json.Unmarshal(m.body, resp)
		}
		return nil
	case <-c.l.closed:
		c.mu.Lock()
		delete(c.pend, id)
		c.mu.Unlock()
		err := c.l.failure()
		if err == nil {
			err = errors.New("connection closed")
		}
		return fmt.Errorf("streamrt: worker %d control link: %w", c.worker, err)
	}
}

func (c *ctrlClient) close() { c.l.close(nil) }

// remote is the placement of a distributed deployment: a network proxy
// of the calls a local job makes on its host directly. Deploys are
// two-phase (every worker installs its receive table, then all sources
// start), state crosses processes as StateCodec bytes through the
// framed transport, and every call fans out to all workers. deploy,
// drain and collect run under the coordinator's lock; wait and
// awaitFirstRecord only touch the immutable connection list.
type remote struct {
	pipe     *Pipeline
	workload string
	cfg      Config
	epoch    time.Time
	ctrls    []*ctrlClient
	addrs    []string
	assign   map[string][]int // the live generation's operator -> instance -> worker

	linkMu   sync.Mutex
	linkSeen map[string]LinkStats // label -> last collected counters
}

// dialRemote checks that pipe can be deployed at initial over the
// workers at addrs and opens a control connection to each.
func dialRemote(pipe *Pipeline, workload string, cfg Config, epoch time.Time, addrs []string, initial dataflow.Parallelism) (*remote, error) {
	r := &remote{pipe: pipe, workload: workload, cfg: cfg, epoch: epoch, addrs: addrs, linkSeen: make(map[string]LinkStats)}
	if err := r.validate(initial); err != nil {
		return nil, err
	}
	for i, addr := range addrs {
		cc, err := dialCtrl(i, addr)
		if err != nil {
			r.close()
			return nil, err
		}
		r.ctrls = append(r.ctrls, cc)
	}
	return r, nil
}

func (r *remote) workers() int { return len(r.addrs) }

func (r *remote) validate(par dataflow.Parallelism) error {
	return validateDistributed(r.pipe, par, len(r.addrs))
}

func (r *remote) close() {
	for _, cc := range r.ctrls {
		cc.close()
	}
}

// each fans f out to every worker and joins the errors.
func (r *remote) each(f func(cc *ctrlClient) error) error {
	errs := make([]error, len(r.ctrls))
	var wg sync.WaitGroup
	for i, cc := range r.ctrls {
		wg.Add(1)
		go func(i int, cc *ctrlClient) {
			defer wg.Done()
			errs[i] = f(cc)
		}(i, cc)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// deploy pushes one new generation: placement, the cut (key-group
// bounds — identical on every worker — and per-instance shares, over the
// bytes the workers drained or a savepoint file's runs, in group form),
// then the two-phase deploy/start barrier, each worker receiving the
// bounds and the shares of the instances it hosts.
// snap.seqs, on a restore, carries per-rank source counters; each
// hosting worker receives its rank's counter. tr, when non-nil, times
// the router_rebuild/transfer/restart phases with per-worker child
// spans (nil on the initial deploy — only reconfigurations are traced).
func (r *remote) deploy(gen uint32, par dataflow.Parallelism, snap *snapshot, tr *rescaleTrace) error {
	workers := len(r.ctrls)
	assign := PlanPlacement(par, workers)
	var routers map[string]*router
	var shares parts[[]byte]
	var err error
	tr.phase(phaseRouterRebuild, func(uint64) { routers, shares = dealAll(r.pipe, snap.enc, par) })
	bounds := make(map[string][]int, len(routers))
	for op, rt := range routers {
		bounds[op] = rt.bounds
	}
	// Per-worker restore counters: rank i of a source maps to the i'th
	// sorted hosting worker under the new placement.
	perWorkerSeqs := make([]map[string]int64, workers)
	for src, counters := range snap.seqs {
		for rank, w := range hostingWorkers(assign[src]) {
			if rank >= len(counters) {
				break // shape was validated at restore; belt and braces
			}
			if perWorkerSeqs[w] == nil {
				perWorkerSeqs[w] = make(map[string]int64)
			}
			perWorkerSeqs[w][src] = counters[rank]
		}
	}
	elapsed := time.Since(r.epoch).Seconds()
	tr.phase(phaseTransfer, func(parent uint64) {
		err = r.each(func(cc *ctrlClient) error {
			req := deployReq{
				Workload:    r.workload,
				Gen:         gen,
				Worker:      cc.worker,
				Workers:     workers,
				Peers:       r.addrs,
				Parallelism: par,
				Assign:      assign,
				Bounds:      bounds,
				Shares:      hostedShares(shares, routers, assign, cc.worker),
				Seqs:        perWorkerSeqs[cc.worker],
				Elapsed:     elapsed,
				Config:      r.cfg,
			}
			if tr != nil {
				req.Trace = traceCtx{ID: tr.t.ID(), Span: parent}
			}
			s0 := tr.now()
			var resp deployResp
			if err := cc.rpc(ctrlDeploy, req, &resp); err != nil {
				return err
			}
			tr.child(fmt.Sprintf("transfer/w%d", cc.worker), cc.worker, parent, s0, tr.now(), resp.Spans)
			return nil
		})
	})
	if err != nil {
		return err
	}
	tr.phase(phaseRestart, func(parent uint64) {
		err = r.each(func(cc *ctrlClient) error {
			s0 := tr.now()
			if err := cc.rpc(ctrlStart, startReq{Gen: gen}, nil); err != nil {
				return err
			}
			tr.child(fmt.Sprintf("restart/w%d", cc.worker), cc.worker, parent, s0, tr.now(), nil)
			return nil
		})
	})
	if err != nil {
		return err
	}
	r.assign = assign
	return nil
}

// hostedShares is the part of the cut a DEPLOY carries to worker w: per
// keyed operator, the group maps of the range of every instance w hosts,
// nil for the other instances.
func hostedShares(shares parts[[]byte], routers map[string]*router, assign map[string][]int, w int) map[string][]wireState {
	out := make(map[string][]wireState, len(shares))
	for op, groups := range shares {
		r := routers[op]
		mine := make([]wireState, r.n)
		for k := range mine {
			if assign[op][k] == w {
				mine[k] = groups[r.bounds[k]:r.bounds[k+1]]
			}
		}
		out[op] = mine
	}
	return out
}

// wireState is one instance's share on the control channel: the JSON
// object of key -> StateCodec bytes a map[string][]byte marshals to. The
// coordinator writes it from the group maps of the instance's range
// without merging them into one map first; a worker reads it into one
// map. Nil is null, an instance another worker hosts.
type wireState []map[string][]byte

// MarshalJSON writes the union of s's maps as one JSON object.
func (s wireState) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	buf := []byte{'{'}
	for _, kv := range s {
		for k, v := range kv {
			if len(buf) > 1 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, k)
			if v == nil {
				buf = append(buf, ":null"...)
				continue
			}
			buf = append(buf, ':', '"')
			buf = base64.StdEncoding.AppendEncode(buf, v)
			buf = append(buf, '"')
		}
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON reads one JSON object into a single map.
func (s *wireState) UnmarshalJSON(b []byte) error {
	var kv map[string][]byte
	if err := json.Unmarshal(b, &kv); err != nil {
		return err
	}
	*s = nil
	if kv != nil {
		*s = wireState{kv}
	}
	return nil
}

// appendJSONString appends s as a JSON string: as it is between quotes
// when it is printable ASCII with nothing to escape, else as
// encoding/json writes it.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			b, _ := json.Marshal(s)
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// drain drains every worker, recording one child span per worker RPC
// under parent (plus the worker-shipped handler spans). The snapshot
// gets every drained instance's encoded state, filed into group form,
// and the per-rank source counters:
// rank i of a source is the i'th (sorted) worker hosting it under the
// drained generation's placement, and its counter is that worker's
// drained local count.
func (r *remote) drain(tr *rescaleTrace, parent uint64) (*snapshot, error) {
	resps := make([]drainResp, len(r.ctrls))
	err := r.each(func(cc *ctrlClient) error {
		req := drainReq{}
		if tr != nil {
			req.Trace = traceCtx{ID: tr.t.ID(), Span: parent}
		}
		s0 := tr.now()
		if err := cc.rpc(ctrlDrain, req, &resps[cc.worker]); err != nil {
			return err
		}
		tr.child(fmt.Sprintf("drain/w%d", cc.worker), cc.worker, parent, s0, tr.now(), resps[cc.worker].Spans)
		return nil
	})
	if err != nil {
		return nil, err
	}
	snap := &snapshot{enc: workerStates(r.pipe, resps), seqs: make(map[string][]int64, len(r.pipe.sources))}
	for src := range r.pipe.sources {
		for _, w := range hostingWorkers(r.assign[src]) {
			snap.seqs[src] = append(snap.seqs[src], resps[w].Seqs[src])
		}
	}
	return snap, nil
}

// workerStates files the states the workers drained into group form.
func workerStates(pipe *Pipeline, resps []drainResp) parts[[]byte] {
	// Bytes go through no codec, so filing them cannot fail.
	p, _ := filed(pipe, func(op string) iter.Seq2[string, []byte] {
		var list []map[string][]byte
		for w := range resps {
			list = append(list, resps[w].States[op]...)
		}
		return pairs(list)
	}, sameBytes)
	return p
}

// collect takes every worker's accumulators and mirrors their link
// counters.
func (r *remote) collect() ([]wireAcc, error) {
	var mu sync.Mutex
	var accs []wireAcc
	var links []LinkStats
	err := r.each(func(cc *ctrlClient) error {
		var resp collectResp
		if err := cc.rpc(ctrlCollect, struct{}{}, &resp); err != nil {
			return err
		}
		mu.Lock()
		accs = append(accs, resp.Accs...)
		links = append(links, resp.Links...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.mirrorLinks(links)
	return accs, nil
}

// mirrorLinks folds the workers' link counters into the coordinator's
// registry. The same label appears on both ends of a connection (the
// dialer counts tx, the acceptor rx), so summing per label yields the
// link's complete traffic.
func (r *remote) mirrorLinks(links []LinkStats) {
	r.linkMu.Lock()
	defer r.linkMu.Unlock()
	agg := make(map[string]LinkStats, len(links))
	for _, s := range links {
		a := agg[s.Link]
		a.Link = s.Link
		a.TxBytes += s.TxBytes
		a.TxFrames += s.TxFrames
		a.RxBytes += s.RxBytes
		a.RxFrames += s.RxFrames
		a.Stalls += s.Stalls
		agg[s.Link] = a
	}
	for label, s := range agg {
		if _, seen := r.linkSeen[label]; !seen && r.cfg.Metrics != nil {
			registerLinkStats(r.cfg.Metrics, label, func() LinkStats {
				r.linkMu.Lock()
				defer r.linkMu.Unlock()
				return r.linkSeen[label]
			})
		}
		r.linkSeen[label] = s
	}
}

// linkTotals returns the last collected per-link counters, aggregated
// across both endpoints of every connection.
func (r *remote) linkTotals() []LinkStats {
	r.linkMu.Lock()
	defer r.linkMu.Unlock()
	out := make([]LinkStats, 0, len(r.linkSeen))
	for _, s := range r.linkSeen {
		out = append(out, s)
	}
	return out
}

// wait blocks until every worker's share of the current generation has
// exited; natural only if it was on all of them.
func (r *remote) wait() (bool, error) {
	var notNatural atomic.Bool
	err := r.each(func(cc *ctrlClient) error {
		var resp waitResp
		if err := cc.rpc(ctrlWait, struct{}{}, &resp); err != nil {
			return err
		}
		if !resp.Natural {
			notNatural.Store(true)
		}
		return nil
	})
	return err == nil && !notNatural.Load(), err
}

// awaitFirstRecord polls the workers for the first record processed by
// generation gen. Once any worker has noted a time, workers still
// pending can only note later ones, so the minimum over the first round
// with a hit is the cluster-wide first record. Gives up after timeout,
// on a control error, or when a worker reports the generation gone
// (drains are broadcast, so it is gone everywhere).
func (r *remote) awaitFirstRecord(gen uint32, timeout time.Duration) (int64, bool) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var mu sync.Mutex
		best, gone := int64(0), false
		err := r.each(func(cc *ctrlClient) error {
			var resp firstRecResp
			if err := cc.rpc(ctrlFirstRec, firstRecReq{Gen: gen}, &resp); err != nil {
				return err
			}
			mu.Lock()
			switch {
			case resp.At < 0:
				gone = true
			case resp.At > 0 && (best == 0 || resp.At < best):
				best = resp.At
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			return 0, false
		}
		if best > 0 {
			return best, true
		}
		if gone {
			return 0, false
		}
		time.Sleep(50 * time.Millisecond)
	}
	return 0, false
}
