package baseline

import (
	"sync"
	"sync/atomic"
	"time"

	"gminer/internal/graph"
	"gminer/internal/lsh"
	"gminer/internal/memctl"
	"gminer/internal/metrics"
)

// This file is a miniature Pregel: the vertex-centric, bulk-synchronous
// substrate that Giraph-class systems provide (§2 "Vertex/Edge-centric
// Systems"). The BSP engine runs graph mining on top of it, which forces
// exactly the pathologies §3 measures: synchronization barriers between
// supersteps and up-front materialization of neighborhood subgraphs in
// message buffers.

// Message is a Pregel message: an ID payload (adjacency fragments — what
// mining algorithms ship) plus a scalar.
type Message struct {
	To  graph.VertexID
	Src graph.VertexID
	IDs []graph.VertexID
	Val int64
}

func (m *Message) footprint() int64 { return int64(24 + 8*len(m.IDs)) }

// ComputeCtx is the per-vertex compute context.
type ComputeCtx struct {
	Superstep int
	outbox    []Message
	halted    bool
	agg       int64
	aggSet    bool
}

// Send enqueues a message for the next superstep.
func (c *ComputeCtx) Send(m Message) { c.outbox = append(c.outbox, m) }

// VoteHalt deactivates the vertex until a message wakes it.
func (c *ComputeCtx) VoteHalt() { c.halted = true }

// Aggregate folds a value into the global sum aggregator.
func (c *ComputeCtx) Aggregate(v int64) { c.agg += v; c.aggSet = true }

// VertexProgram is the user algorithm of the mini-Pregel.
type VertexProgram interface {
	// Compute runs once per active vertex per superstep. state is the
	// previous return value (nil in superstep 0).
	Compute(ctx *ComputeCtx, v *graph.Vertex, state any, msgs []Message) any
}

// pregelResult carries the engine outcome.
type pregelResult struct {
	AggSum     int64
	Supersteps int
}

// runPregel executes the program to quiescence under the config's memory
// budget, worker/thread layout and network model.
func runPregel(g *graph.Graph, prog VertexProgram, cfg Config, counters *metrics.Counters) (pregelResult, Stats, error) {
	cfg = cfg.defaults()
	budget := memctl.NewBudget(cfg.MemBudget)
	dl := newDeadline(cfg.Timeout)
	start := time.Now()

	ids := g.IDs()
	n := len(ids)
	states := make([]any, n)
	halted := make([]bool, n)
	inbox := make(map[graph.VertexID][]Message)
	index := make(map[graph.VertexID]int, n)
	owner := make([]int, n)
	for i := 0; i < n; i++ {
		id := ids[i]
		index[id] = i
		owner[i] = int(lsh.HashID(uint64(id)) % uint64(cfg.Workers))
	}
	if err := budget.Charge(g.FootprintBytes()); err != nil {
		return pregelResult{}, statsNow(start, budget, counters, 0), err
	}

	var busy atomic.Int64
	var aggSum int64
	superstep := 0
	for {
		if dl.exceeded() {
			return pregelResult{}, statsNow(start, budget, counters, superstep), ErrTimeout
		}
		// Active set: not halted, or has messages.
		active := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if !halted[i] || len(inbox[ids[i]]) > 0 {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			break
		}

		// Compute phase: all workers' threads in parallel, then barrier.
		threads := cfg.Workers * cfg.Threads
		outboxes := make([][]Message, threads)
		aggParts := make([]int64, threads)
		var wg sync.WaitGroup
		var oomErr error
		var oomMu sync.Mutex
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				tStart := time.Now()
				defer func() { busy.Add(int64(time.Since(tStart))) }()
				for k := t; k < len(active); k += threads {
					i := active[k]
					v := g.Vertex(ids[i])
					ctx := &ComputeCtx{Superstep: superstep}
					states[i] = prog.Compute(ctx, v, states[i], inbox[v.ID])
					halted[i] = ctx.halted
					outboxes[t] = append(outboxes[t], ctx.outbox...)
					if ctx.aggSet {
						aggParts[t] += ctx.agg
					}
				}
				var bytes int64
				for _, m := range outboxes[t] {
					bytes += m.footprint()
				}
				if err := budget.Charge(bytes); err != nil {
					oomMu.Lock()
					if oomErr == nil {
						oomErr = err
					}
					oomMu.Unlock()
				}
			}(t)
		}
		wg.Wait()
		if counters != nil {
			counters.AddBusy(time.Duration(busy.Swap(0)))
		}
		if oomErr != nil {
			return pregelResult{}, statsNow(start, budget, counters, superstep), oomErr
		}
		for _, p := range aggParts {
			aggSum += p
		}

		// Communication phase (barrier): deliver messages, count the
		// cross-worker bytes, sleep for the simulated transfer.
		var releaseBytes int64
		for id := range inbox {
			msgs := inbox[id]
			for i := range msgs {
				releaseBytes += msgs[i].footprint()
			}
			delete(inbox, id)
		}
		budget.Release(releaseBytes)

		var crossBytes int64
		delivered := 0
		for _, ob := range outboxes {
			for i := range ob {
				m := ob[i]
				j, ok := index[m.To]
				if !ok {
					continue
				}
				inbox[m.To] = append(inbox[m.To], m)
				delivered++
				if si, ok2 := index[m.Src]; !ok2 || owner[si] != owner[j] {
					crossBytes += m.footprint()
				}
			}
		}
		if counters != nil && crossBytes > 0 {
			counters.AddNet(crossBytes)
		}
		commSleep(cfg, crossBytes)

		if cfg.Dataflow {
			// Dataflow engines (the GraphX model) materialize the full
			// vertex/edge datasets every superstep: charge and pay for it.
			if err := budget.Charge(g.FootprintBytes()); err != nil {
				return pregelResult{}, statsNow(start, budget, counters, superstep), err
			}
			commSleep(cfg, g.FootprintBytes()/8)
			budget.Release(g.FootprintBytes())
		}

		superstep++
		if delivered == 0 {
			// No messages: remaining activity is only non-halted vertices;
			// loop once more (they may halt) — but guard against programs
			// that never halt.
			allHalted := true
			for _, i := range active {
				if !halted[i] {
					allHalted = false
					break
				}
			}
			if allHalted {
				break
			}
		}
		if superstep > 10000 {
			return pregelResult{}, statsNow(start, budget, counters, superstep), ErrTimeout
		}
	}
	return pregelResult{AggSum: aggSum, Supersteps: superstep},
		statsNow(start, budget, counters, superstep), nil
}

func statsNow(start time.Time, budget *memctl.Budget, counters *metrics.Counters, steps int) Stats {
	s := Stats{
		Elapsed:    time.Since(start),
		PeakMem:    budget.Peak(),
		Supersteps: steps,
	}
	if counters != nil {
		snap := counters.Snapshot()
		s.NetBytes = snap.NetBytes
		s.CPUUtil = snap.CPUUtil(s.Elapsed, 1)
	}
	return s
}
