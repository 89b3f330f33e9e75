// Package sim runs the cluster subsystem as a deterministic simulation:
// an in-memory Transport with seeded fault plans (dropped, duplicated,
// delayed/reordered shipments, lost acknowledgements, node crash + restart
// from checkpoint) and a virtual Clock, driven single-threaded so that any
// multi-node run — including a 3-level worker → aggregator → root tree —
// replays byte-identically from a single seed.
//
// The point is falsifiability: the cluster's fault-tolerance claims (no
// element lost, no element double-counted, answers within ε·N rank error
// with probability ≥ 1−δ) are probabilistic and order-dependent, so a
// failing run must be replayable exactly. Everything the simulation does —
// every shipment attempt, injected fault, accepted epoch, checkpoint and
// final answer — is appended to a transcript; two runs with the same
// Config produce identical transcripts, so a transcript diff pinpoints the
// first divergence and a transcript hash is a regression fingerprint.
package sim

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"repro/cluster"
	"repro/cluster/agg"
	"repro/internal/engine"
	"repro/internal/rng"
)

// VirtualClock is a deterministic cluster.Clock: Now returns simulated
// time and Sleep advances it instantly instead of blocking. It is not
// goroutine-safe; the simulation is single-threaded by design.
type VirtualClock struct {
	now time.Time
}

// simEpoch is the fixed simulation start time; any constant works, a round
// date keeps transcripts readable.
var simEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// NewVirtualClock returns a clock starting at the simulation epoch.
func NewVirtualClock() *VirtualClock { return &VirtualClock{now: simEpoch} }

// Now implements cluster.Clock.
func (c *VirtualClock) Now() time.Time { return c.now }

// Sleep implements cluster.Clock: simulated time jumps by d immediately.
func (c *VirtualClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.now = c.now.Add(d)
	return nil
}

// Advance moves simulated time forward by d.
func (c *VirtualClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// FaultPlan gives the per-attempt probabilities of each injected network
// fault. All zeros is a perfect network. Faults are rolled from the
// simulation's seeded generator, so a plan plus a seed is a complete,
// replayable failure schedule.
type FaultPlan struct {
	// DropProb loses the request before the receiver sees it; the sender
	// observes a transient error and retries.
	DropProb float64

	// DupProb delivers the envelope twice (network-level duplication);
	// the receiver must deduplicate the second copy.
	DupProb float64

	// LostAckProb delivers the envelope but loses the acknowledgement;
	// the sender observes a transient error and retransmits an envelope
	// the receiver has already counted.
	LostAckProb float64

	// DelayProb holds the envelope back and delivers it DelaySends
	// shipment attempts later — by which time younger epochs have usually
	// arrived, so held envelopes reach the receiver out of order. The
	// sender observes a transient error and retransmits.
	DelayProb float64

	// DelaySends is how many subsequent attempts a held envelope waits
	// before delivery (default 3).
	DelaySends int
}

// Config describes one simulated cluster.
type Config struct {
	// Eps and Delta are the guarantee parameters every node is built with.
	// For a 3-level tree this is the per-node budget (the PerLevelEps
	// split of the root target), exactly as it would be deployed.
	Eps, Delta float64

	// Engine selects the sketch engine every node runs ("mrl99", "kll" or
	// "gk"; empty means mrl99). The whole simulated tree shares one engine,
	// as a real deployment must.
	Engine string

	// Seed determines everything: sketch sampling, fault rolls, retry
	// jitter. Same Config (including Seed) ⇒ byte-identical transcript.
	Seed uint64

	// Workers is the number of shipping workers (default 2).
	Workers int

	// Aggregators inserts a level-1 aggregation tier of that many nodes
	// between the workers and the root: workers are assigned to
	// aggregators by the consistent-hash ring, aggregators ship their
	// merged windows to the root each cycle, and every hop rides the same
	// fault-injected transport. 0 (the default) is the flat 2-level
	// layout.
	Aggregators int

	// Shards is each mrl99 worker's concurrent-sketch shard count
	// (default 1; the simulation feeds single-threaded, so one shard keeps
	// blobs minimal without changing guarantees).
	Shards int

	// Faults is the network fault plan, applied to every hop.
	Faults FaultPlan

	// CheckpointPath enables crash/restart: the root checkpoints here at
	// the end of every cycle (aggregator i checkpoints at the same path
	// suffixed ".a<i>"), Crash discards in-memory state, and Restart
	// rebuilds it from the file.
	CheckpointPath string

	// MaxRetries bounds delivery attempts per epoch per cycle (default 8).
	MaxRetries int
}

// ingester is the receiving half of any simulated node (root coordinator
// or aggregator).
type ingester interface {
	Ingest(cluster.Envelope) (int, cluster.ShipResult)
	Count() uint64
}

// node is one addressable destination on the simulated network. ing is nil
// while the node is crashed.
type node struct {
	name string
	ing  ingester
}

// Cluster is one simulated deployment: a root coordinator, an optional
// aggregation tier, a fleet of workers and the fault-injecting transport
// between them, all sharing a virtual clock. Drive it with Feed/Cycle
// (plus Crash/Restart and their aggregator variants), then query.
type Cluster struct {
	cfg     Config
	clock   *VirtualClock
	net     *Transport
	workers []*cluster.Worker

	coord    *cluster.Coordinator // nil while crashed
	rootNode *node
	aggs     []*agg.Aggregator // aggs[i] nil while crashed
	aggNodes []*node

	cycleNum int
	fed      uint64
	buf      bytes.Buffer
}

// New builds a simulated cluster. It fails only on invalid guarantee
// parameters.
func New(cfg Config) (*Cluster, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	if cfg.Faults.DelaySends <= 0 {
		cfg.Faults.DelaySends = 3
	}
	engName, err := engine.Normalize(cfg.Engine)
	if err != nil {
		return nil, err
	}
	cfg.Engine = engName
	cl := &Cluster{cfg: cfg, clock: NewVirtualClock()}
	cl.net = &Transport{
		clock:  cl.clock,
		rg:     rng.New(cfg.Seed ^ 0xfa417),
		plan:   cfg.Faults,
		routes: make(map[string]*node),
		logf:   cl.logf,
	}
	coord, err := cl.newCoordinator()
	if err != nil {
		return nil, err
	}
	cl.coord = coord
	cl.rootNode = &node{name: "coordinator", ing: coord}

	// Optional aggregation tier, with workers assigned by the hash ring.
	ring := agg.NewRing(0)
	for i := 0; i < cfg.Aggregators; i++ {
		a, err := cl.newAggregator(i)
		if err != nil {
			return nil, err
		}
		an := &node{name: cl.aggName(i), ing: a}
		cl.aggs = append(cl.aggs, a)
		cl.aggNodes = append(cl.aggNodes, an)
		cl.net.routes[an.name] = cl.rootNode // aggregators ship to the root
		ring.Add(an.name)
	}

	for i := 0; i < cfg.Workers; i++ {
		id := fmt.Sprintf("w%d", i)
		wcfg := cluster.WorkerConfig{
			ID:          id,
			Transport:   cl.net,
			Clock:       cl.clock,
			Seed:        cfg.Seed + uint64(i)*2654435761 + 3,
			MaxRetries:  cfg.MaxRetries,
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  160 * time.Millisecond,
			Logger:      cl.logger(),
		}
		ing, err := engine.NewIngest(engName, cfg.Eps, cfg.Delta, cfg.Shards,
			cfg.Seed+uint64(i)*0x9e3779b97f4a7c15+1)
		if err != nil {
			return nil, err
		}
		w, err := cluster.NewWorker(ing, wcfg)
		if err != nil {
			return nil, err
		}
		cl.workers = append(cl.workers, w)
		dest := cl.rootNode
		if name, ok := ring.Assign(id); ok {
			for j, an := range cl.aggNodes {
				if an.name == name {
					dest = an
					cl.logf("sim: worker %s -> %s", id, cl.aggName(j))
				}
			}
		}
		cl.net.routes[id] = dest
	}
	return cl, nil
}

func (cl *Cluster) aggName(i int) string { return fmt.Sprintf("a%d", i) }

func (cl *Cluster) newCoordinator() (*cluster.Coordinator, error) {
	return cluster.NewCoordinator(cluster.CoordinatorConfig{
		Eps:            cl.cfg.Eps,
		Delta:          cl.cfg.Delta,
		Engine:         cl.cfg.Engine,
		Seed:           cl.cfg.Seed ^ 0x51c0,
		CheckpointPath: cl.cfg.CheckpointPath,
		Clock:          cl.clock,
		Logger:         cl.logger(),
	})
}

// newAggregator builds aggregator i with its deterministic identity; the
// same construction serves first boot and checkpoint restart.
func (cl *Cluster) newAggregator(i int) (*agg.Aggregator, error) {
	path := ""
	if cl.cfg.CheckpointPath != "" {
		path = fmt.Sprintf("%s.a%d", cl.cfg.CheckpointPath, i)
	}
	return agg.New(agg.Config{
		ID:             cl.aggName(i),
		Level:          1,
		Eps:            cl.cfg.Eps,
		Delta:          cl.cfg.Delta,
		Engine:         cl.cfg.Engine,
		Transport:      cl.net,
		Clock:          cl.clock,
		Seed:           cl.cfg.Seed + uint64(i)*0x2545f4914f6cdd1d + 5,
		MaxRetries:     cl.cfg.MaxRetries,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     160 * time.Millisecond,
		CheckpointPath: path,
		Logger:         cl.logger(),
	})
}

// logf appends one line to the transcript, stamped with virtual time. The
// checkpoint path (host-dependent: temp dirs differ run to run) is
// scrubbed so transcripts stay byte-comparable across processes; the
// aggregators' derived paths share the root path as prefix, so one
// replacement scrubs every node.
func (cl *Cluster) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if cl.cfg.CheckpointPath != "" {
		line = strings.ReplaceAll(line, cl.cfg.CheckpointPath, "<checkpoint>")
	}
	fmt.Fprintf(&cl.buf, "[t=%9.3f] %s\n", cl.clock.Now().Sub(simEpoch).Seconds(), line)
}

// logger adapts the transcript to slog for the cluster components.
func (cl *Cluster) logger() *slog.Logger {
	return slog.New(&transcriptHandler{logf: cl.logf})
}

// transcriptHandler renders slog records as single deterministic
// "msg key=value ..." lines through the cluster's transcript logf. The
// record's wall-clock timestamp is deliberately ignored: the transcript is
// stamped with virtual time by logf, and letting real time through would
// break byte-identical replay.
type transcriptHandler struct {
	logf  func(format string, args ...any)
	attrs []slog.Attr
}

func (h *transcriptHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *transcriptHandler) Handle(_ context.Context, r slog.Record) error {
	var b strings.Builder
	b.WriteString(r.Message)
	emit := func(a slog.Attr) bool {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
		return true
	}
	for _, a := range h.attrs {
		emit(a)
	}
	r.Attrs(emit)
	h.logf("%s", b.String())
	return nil
}

func (h *transcriptHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	merged := append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return &transcriptHandler{logf: h.logf, attrs: merged}
}

func (h *transcriptHandler) WithGroup(string) slog.Handler { return h }

// Feed adds vals to worker w's sketch (its local ingest stream).
func (cl *Cluster) Feed(w int, vals []float64) {
	cl.workers[w].AddAll(vals)
	cl.fed += uint64(len(vals))
}

// Fed returns the total number of elements fed so far.
func (cl *Cluster) Fed() uint64 { return cl.fed }

// Cycle runs one ship cycle: every worker (in index order) cuts its window
// and attempts delivery, then every live aggregator cuts its merged window
// and ships it rootward, held shipments due this cycle are flushed, and —
// when checkpointing is configured — every live node checkpoints.
// Transient delivery failures are expected under fault plans and are
// recorded, not returned.
func (cl *Cluster) Cycle() error {
	cl.cycleNum++
	cl.clock.Advance(time.Second)
	cl.logf("sim: -- cycle %d --", cl.cycleNum)
	for i, w := range cl.workers {
		if err := w.ShipOnce(context.Background()); err != nil {
			cl.logf("sim: worker w%d: %v", i, err)
		}
	}
	for i, a := range cl.aggs {
		if a == nil {
			cl.logf("sim: aggregator %s down, skipping ship", cl.aggName(i))
			continue
		}
		if err := a.ShipOnce(context.Background()); err != nil {
			cl.logf("sim: aggregator %s: %v", cl.aggName(i), err)
		}
	}
	cl.net.flush(false)
	if cl.cfg.CheckpointPath != "" {
		if cl.coord != nil {
			if err := cl.coord.CheckpointNow(); err != nil {
				return fmt.Errorf("sim: checkpoint: %w", err)
			}
			cl.logf("sim: checkpoint written (count=%d)", cl.coord.Count())
		}
		for i, a := range cl.aggs {
			if a == nil {
				continue
			}
			if err := a.CheckpointNow(); err != nil {
				return fmt.Errorf("sim: checkpoint %s: %w", cl.aggName(i), err)
			}
			cl.logf("sim: checkpoint %s written (count=%d pending=%d)",
				cl.aggName(i), a.Count(), a.Stats().Pending)
		}
	}
	return nil
}

// Crash takes the root coordinator down, discarding its in-memory state;
// only the last end-of-cycle checkpoint survives. Requires CheckpointPath.
func (cl *Cluster) Crash() error {
	if cl.cfg.CheckpointPath == "" {
		return fmt.Errorf("sim: Crash requires a CheckpointPath")
	}
	if cl.coord == nil {
		return fmt.Errorf("sim: coordinator already down")
	}
	cl.logf("sim: coordinator CRASH (in-memory count=%d discarded)", cl.coord.Count())
	cl.coord = nil
	cl.rootNode.ing = nil
	return nil
}

// Restart rebuilds the root coordinator from its checkpoint file and puts
// it back on the network.
func (cl *Cluster) Restart() error {
	if cl.coord != nil {
		return fmt.Errorf("sim: coordinator is not down")
	}
	coord, err := cl.newCoordinator()
	if err != nil {
		return fmt.Errorf("sim: restart: %w", err)
	}
	cl.coord = coord
	cl.rootNode.ing = coord
	cl.logf("sim: coordinator RESTART (restored count=%d)", coord.Count())
	return nil
}

// CrashAggregator takes aggregator i down, discarding its in-memory merge
// residue and upstream queue; only its last end-of-cycle checkpoint
// survives. Requires CheckpointPath.
func (cl *Cluster) CrashAggregator(i int) error {
	if cl.cfg.CheckpointPath == "" {
		return fmt.Errorf("sim: CrashAggregator requires a CheckpointPath")
	}
	if i < 0 || i >= len(cl.aggs) {
		return fmt.Errorf("sim: no aggregator %d", i)
	}
	if cl.aggs[i] == nil {
		return fmt.Errorf("sim: aggregator %s already down", cl.aggName(i))
	}
	cl.logf("sim: aggregator %s CRASH (in-memory count=%d pending=%d discarded)",
		cl.aggName(i), cl.aggs[i].Count(), cl.aggs[i].Stats().Pending)
	cl.aggs[i] = nil
	cl.aggNodes[i].ing = nil
	return nil
}

// RestartAggregator rebuilds aggregator i from its checkpoint file —
// restoring its merge residue, dedup table and upstream epoch queue — and
// puts it back on the network.
func (cl *Cluster) RestartAggregator(i int) error {
	if i < 0 || i >= len(cl.aggs) {
		return fmt.Errorf("sim: no aggregator %d", i)
	}
	if cl.aggs[i] != nil {
		return fmt.Errorf("sim: aggregator %s is not down", cl.aggName(i))
	}
	a, err := cl.newAggregator(i)
	if err != nil {
		return fmt.Errorf("sim: restart %s: %w", cl.aggName(i), err)
	}
	cl.aggs[i] = a
	cl.aggNodes[i].ing = a
	cl.logf("sim: aggregator %s RESTART (restored count=%d pending=%d)",
		cl.aggName(i), a.Count(), a.Stats().Pending)
	return nil
}

// Drain runs extra cycles (no new data) until every fed element is
// acknowledged by the root or maxCycles elapse. With any fault probability
// below 1 the retries converge quickly; failure to converge is an
// infrastructure bug, not a statistical event, hence the error.
func (cl *Cluster) Drain(maxCycles int) error {
	for i := 0; i < maxCycles; i++ {
		if cl.coord != nil && cl.coord.Count() == cl.fed && !cl.net.holding() {
			cl.logf("sim: drained, count=%d", cl.fed)
			return nil
		}
		if err := cl.Cycle(); err != nil {
			return err
		}
	}
	if cl.coord == nil {
		return fmt.Errorf("sim: drain with coordinator down")
	}
	cl.net.flush(true)
	if got := cl.coord.Count(); got != cl.fed {
		return fmt.Errorf("sim: drained %d cycles but coordinator has %d of %d elements", maxCycles, got, cl.fed)
	}
	cl.logf("sim: drained, count=%d", cl.fed)
	return nil
}

// Count returns the root's aggregate element count (0 while down).
func (cl *Cluster) Count() uint64 {
	if cl.coord == nil {
		return 0
	}
	return cl.coord.Count()
}

// Coordinator returns the live root coordinator (nil while crashed).
func (cl *Cluster) Coordinator() *cluster.Coordinator { return cl.coord }

// Aggregator returns live aggregator i (nil while crashed or out of range).
func (cl *Cluster) Aggregator(i int) *agg.Aggregator {
	if i < 0 || i >= len(cl.aggs) {
		return nil
	}
	return cl.aggs[i]
}

// WorkerStats returns each worker's shipping counters.
func (cl *Cluster) WorkerStats() []cluster.WorkerStats {
	out := make([]cluster.WorkerStats, len(cl.workers))
	for i, w := range cl.workers {
		out[i] = w.Stats()
	}
	return out
}

// Quantiles queries the root and records the answers in the transcript, so
// final answers are part of the byte-identical replay.
func (cl *Cluster) Quantiles(phis []float64) ([]float64, error) {
	if cl.coord == nil {
		return nil, fmt.Errorf("sim: query with coordinator down")
	}
	vals, err := cl.coord.Quantiles(phis)
	if err != nil {
		return nil, err
	}
	for i, phi := range phis {
		cl.logf("sim: quantile phi=%g -> %g", phi, vals[i])
	}
	return vals, nil
}

// Transcript returns the full simulation log: every shipment attempt,
// injected fault, accepted epoch, checkpoint, crash/restart and recorded
// answer, stamped with virtual time.
func (cl *Cluster) Transcript() []byte { return bytes.Clone(cl.buf.Bytes()) }

// heldEnvelope is a delayed shipment waiting in the network.
type heldEnvelope struct {
	env  cluster.Envelope
	dest *node
	due  int // deliver when Transport.sends reaches this
}

// Transport is the in-memory fault-injecting cluster.Transport for every
// hop of the tree. It routes each envelope by its sender ID (workers to
// their ring-assigned aggregator or the root; aggregators to the root) and
// delivers straight into the destination's Ingest, rolling the fault plan
// from its seeded generator on every attempt.
type Transport struct {
	clock  *VirtualClock
	rg     *rng.RNG
	plan   FaultPlan
	routes map[string]*node // sender ID → destination
	held   []heldEnvelope
	sends  int
	logf   func(format string, args ...any)
}

// Ship implements cluster.Transport.
func (t *Transport) Ship(ctx context.Context, env cluster.Envelope) (cluster.ShipResult, error) {
	t.sends++
	t.flush(false)
	// Fixed draw count per attempt keeps the fault schedule stable no
	// matter which branch wins.
	rDelay, rDrop, rDup, rAck := t.rg.Float64(), t.rg.Float64(), t.rg.Float64(), t.rg.Float64()
	tag := fmt.Sprintf("sim: net %s/%d", env.Worker, env.Epoch)
	dest := t.routes[env.Worker]
	if dest == nil {
		return cluster.ShipResult{}, cluster.Permanent(fmt.Errorf("sim: no route for sender %q", env.Worker))
	}
	if dest.ing == nil {
		t.logf("%s -> %s down", tag, dest.name)
		return cluster.ShipResult{}, fmt.Errorf("sim: %s down", dest.name)
	}
	switch {
	case rDelay < t.plan.DelayProb:
		t.held = append(t.held, heldEnvelope{env: env, dest: dest, due: t.sends + t.plan.DelaySends})
		t.logf("%s -> delayed until send %d", tag, t.sends+t.plan.DelaySends)
		return cluster.ShipResult{}, fmt.Errorf("sim: request delayed in network")
	case rDrop < t.plan.DropProb:
		t.logf("%s -> dropped", tag)
		return cluster.ShipResult{}, fmt.Errorf("sim: request dropped")
	case rDup < t.plan.DupProb:
		status, res := dest.ing.Ingest(env)
		t.logf("%s -> %s (duplicated in flight)", tag, res.Status)
		_, res2 := dest.ing.Ingest(env)
		t.logf("%s -> %s (network duplicate)", tag, res2.Status)
		return t.finish(dest, status, res)
	case rAck < t.plan.LostAckProb:
		status, res := dest.ing.Ingest(env)
		t.logf("%s -> %s but ACK LOST (status %d)", tag, res.Status, status)
		return cluster.ShipResult{}, fmt.Errorf("sim: acknowledgement lost")
	default:
		status, res := dest.ing.Ingest(env)
		t.logf("%s -> %s", tag, res.Status)
		return t.finish(dest, status, res)
	}
}

// finish maps an Ingest verdict onto Transport error semantics, mirroring
// HTTPTransport's status-code mapping.
func (t *Transport) finish(dest *node, status int, res cluster.ShipResult) (cluster.ShipResult, error) {
	switch {
	case status >= 200 && status < 300:
		return res, nil
	case status >= 400 && status < 500:
		return cluster.ShipResult{}, cluster.Permanent(fmt.Errorf("%s: status %d: %s", dest.name, status, res.Error))
	default:
		return cluster.ShipResult{}, fmt.Errorf("%s: status %d: %s", dest.name, status, res.Error)
	}
}

// flush delivers held envelopes that have come due (all of them when all
// is true) while their destination is up. Envelopes that come due during
// an outage are lost with the outage — exactly what a real delayed packet
// aimed at a dead host would suffer.
func (t *Transport) flush(all bool) {
	var keep []heldEnvelope
	for _, h := range t.held {
		if !all && h.due > t.sends {
			keep = append(keep, h)
			continue
		}
		if h.dest.ing == nil {
			t.logf("sim: net %s/%d held copy -> lost (%s down)", h.env.Worker, h.env.Epoch, h.dest.name)
			continue
		}
		_, res := h.dest.ing.Ingest(h.env)
		t.logf("sim: net %s/%d held copy delivered late -> %s", h.env.Worker, h.env.Epoch, res.Status)
	}
	t.held = keep
}

// holding reports whether any delayed envelopes are still in the network.
func (t *Transport) holding() bool { return len(t.held) > 0 }
