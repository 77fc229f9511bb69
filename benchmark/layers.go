package main

import (
	"fmt"
	"time"

	"gminer/internal/cache"
	"gminer/internal/cluster"
	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/qos"
	"gminer/internal/spill"
	"gminer/internal/store"
	"gminer/internal/transport"
	"gminer/internal/wire"
)

// Layers timed in isolation, through their public functions, on inputs
// cut from the workload's own graph and sized by its own configuration.
// They cost a few hundred milliseconds together and tell a later PR
// whether a layer's unit cost moved when a ladder rung did.

// layerTimer times the layers of one traced run. sink keeps the measured
// calls' results observable, so the compiler cannot elide them.
type layerTimer struct {
	em   *emitter
	sink int
}

// perOp times fn in doubling batches until one batch lasts 20ms and
// returns nanoseconds per call.
func perOp(fn func()) float64 {
	fn()
	for iters := 1; ; iters *= 2 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(start); d >= 20*time.Millisecond || iters >= 1<<24 {
			return float64(d.Nanoseconds()) / float64(iters)
		}
	}
}

func isolatedLayers(em *emitter, rec *recorder, g *graph.Graph, cfg cluster.Config) error {
	root := rec.begin("isolated layers", -1, "")
	defer rec.end(root)
	lt := &layerTimer{em: em}
	var err error
	step := func(name string, fn func() error) {
		if err == nil {
			rec.time(name, root, func() { err = fn() })
		}
	}
	step("partition", func() error { return lt.timePartition(g, cfg) })
	step("cache", func() error { return lt.timeCache(g, cfg.Defaults().CacheCapacity) })
	step("store", func() error { return lt.timeStore(g, cfg.Defaults()) })
	step("wire", func() error { return lt.timeWire(g) })
	step("qos", func() error { return lt.timeFairQueue() })
	step("transport.local", func() error { return lt.timeLocalTransport() })
	step("transport.remote", func() error { return lt.timeRemoteTransport() })
	return err
}

func (lt *layerTimer) timePartition(g *graph.Graph, cfg cluster.Config) error {
	cfg = cfg.Defaults()
	start := time.Now()
	assign, err := cfg.Partitioner.Partition(g, cfg.Workers)
	if err != nil {
		return err
	}
	lt.em.set("partition.assign_ms", msSince(start))
	lt.em.set("partition.edge_cut", assign.EdgeCut(g))
	return nil
}

// sampleVertices returns up to n vertices of g that have neighbors.
func sampleVertices(g *graph.Graph, n int) []*graph.Vertex {
	var out []*graph.Vertex
	for i := 0; i < g.NumVertices() && len(out) < n; i++ {
		if v := g.VertexAt(i); len(v.Adj) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// timeCache times an RCV hit (Acquire + Release on a resident vertex) and
// a miss that inserts (Acquire fails, Insert evicts the oldest unreferenced
// vertex, Release), on a cache of the workload's capacity.
func (lt *layerTimer) timeCache(g *graph.Graph, capacity int) error {
	verts := sampleVertices(g, 2*capacity)
	if len(verts) < 2 {
		return fmt.Errorf("cache: graph has %d usable vertices", len(verts))
	}
	if capacity > len(verts)/2 {
		capacity = len(verts) / 2
	}
	c := cache.NewSharded(capacity, cluster.Config{}.Defaults().CacheShards, nil)
	defer c.Close()
	for _, v := range verts[:capacity] {
		c.Insert(v)
		c.Release(v.ID)
	}
	i := 0
	lt.em.set("cache.acquire_ns", perOp(func() {
		id := verts[i%capacity].ID
		if _, ok := c.Acquire(id); ok {
			c.Release(id)
			lt.sink++
		}
		i++
	}))
	// Cycling through twice the capacity makes every access a miss.
	lt.em.set("cache.miss_insert_ns", perOp(func() {
		v := verts[i%len(verts)]
		if _, ok := c.Acquire(v.ID); !ok {
			c.Insert(v)
			lt.sink++
		}
		c.Release(v.ID)
		i++
	}))
	return nil
}

// sampleTasks builds one inactive task per sampled vertex, shaped like a
// tc seed: the vertex as subgraph, its neighbors as candidates to pull.
func sampleTasks(g *graph.Graph, n int) []*core.Task {
	var tasks []*core.Task
	for i, v := range sampleVertices(g, n) {
		t := &core.Task{ID: uint64(i), Round: 1, Cands: v.Adj, ToPull: v.Adj}
		t.Subgraph.AddVertex(v.ID)
		tasks = append(tasks, t)
	}
	return tasks
}

// timeStore times the task store's insert + pop cycle per task, in
// batches of the engine's buffer-flush size, LSH ordering as configured.
func (lt *layerTimer) timeStore(g *graph.Graph, cfg cluster.Config) error {
	tasks := sampleTasks(g, cfg.BufferFlush)
	if len(tasks) == 0 {
		return fmt.Errorf("store: no tasks to time")
	}
	sp, err := spill.New("", nil)
	if err != nil {
		return err
	}
	defer sp.Close()
	lsh := 0
	if cfg.UseLSH {
		lsh = cfg.LSHDims
	}
	st := store.New(store.Config{MemCapacity: cfg.StoreMemCapacity, BlockCapacity: cfg.StoreBlockCapacity, LSHDims: lsh},
		core.NoContext{}, sp, nil)
	defer st.Close()
	var ierr error
	ns := perOp(func() {
		if err := st.Insert(tasks); err != nil {
			ierr = err
		}
		for range tasks {
			if _, ok := st.TryPop(); ok {
				lt.sink++
			}
		}
	})
	if ierr != nil {
		return ierr
	}
	lt.em.set("store.push_pop_ns", ns/float64(len(tasks)))
	return nil
}

// timeWire times the two messages that dominate a job's traffic: a pull
// response (64 vertices with their adjacency) and a migrated task batch
// (16 tasks), with the pooled writers the runtime uses.
func (lt *layerTimer) timeWire(g *graph.Graph) error {
	verts := sampleVertices(g, 64)
	tasks := sampleTasks(g, 16)
	if len(verts) == 0 {
		return fmt.Errorf("wire: no vertices to encode")
	}
	encode := func(w *wire.Writer) {
		w.Uvarint(uint64(len(verts)))
		for _, v := range verts {
			wire.EncodeVertex(w, v)
		}
	}
	lt.em.set("wire.pull_resp_encode_ns", perOp(func() {
		w := wire.GetWriter(4096)
		encode(w)
		lt.sink += w.Len()
		wire.PutWriter(w)
	}))
	w := wire.NewWriter(4096)
	encode(w)
	payload := w.Bytes()
	var derr error
	lt.em.set("wire.pull_resp_decode_ns", perOp(func() {
		r := wire.NewReader(payload)
		for n := r.Uvarint(); n > 0; n-- {
			if v := wire.DecodeVertex(r); v != nil {
				lt.sink += len(v.Adj)
			}
		}
		if r.Err() != nil {
			derr = r.Err()
		}
	}))
	if derr != nil {
		return fmt.Errorf("wire: %w", derr)
	}
	lt.em.set("wire.task_batch_encode_ns", perOp(func() {
		w := wire.GetWriter(4096)
		w.Uvarint(uint64(len(tasks)))
		for _, t := range tasks {
			core.EncodeTask(w, t, core.NoContext{})
		}
		lt.sink += w.Len()
		wire.PutWriter(w)
	}))
	return nil
}

// timeFairQueue times one admission: Push then Pop on a weighted-fair
// queue holding a standing backlog from the two tenants.
func (lt *layerTimer) timeFairQueue() error {
	q := qos.NewFairQueue()
	entry := func(i int) qos.Entry {
		e := qos.Entry{ID: fmt.Sprint("j", i), Tenant: "a", Weight: 4, Cost: 0.001}
		if i%2 == 1 {
			e.Tenant, e.Weight = "b", 1
		}
		return e
	}
	for i := 0; i < 32; i++ {
		q.Push(entry(i))
	}
	i := 32
	lt.em.set("qos.push_pop_ns", perOp(func() {
		q.Push(entry(i))
		if _, ok := q.Pop(); ok {
			lt.sink++
		}
		i++
	}))
	return nil
}

// Transport probes: node 0 pings, node 1 echoes.
const (
	pingRounds   = 2000
	streamFrames = 512
	streamBytes  = 64 << 10
)

// probeTimeout bounds a transport probe. The probes block in Recv, as the
// workers' communication loops do (RecvTimeout sleep-polls); when the
// timer fires it closes the network under them, which ends every Recv.
const probeTimeout = 30 * time.Second

// pingPong returns the round-trip times, in microseconds, of pingRounds
// small messages bounced off the echoing endpoint.
func pingPong(ping, echo transport.Endpoint) ([]float64, error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < pingRounds; i++ {
			m, ok := echo.Recv()
			if !ok || echo.Send(m.From, m.Type, m.Payload) != nil {
				return
			}
		}
	}()
	payload := make([]byte, 64)
	rtts := make([]float64, 0, pingRounds)
	for i := 0; i < pingRounds; i++ {
		start := time.Now()
		if err := ping.Send(echo.Node(), 1, payload); err != nil {
			return nil, err
		}
		if _, ok := ping.Recv(); !ok {
			return nil, fmt.Errorf("transport: no echo after %d round trips", i)
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
	}
	<-done
	return rtts, nil
}

func (lt *layerTimer) timeLocalTransport() error {
	net := transport.NewLocal(transport.LocalConfig{Nodes: 2})
	defer net.Close()
	defer time.AfterFunc(probeTimeout, net.Close).Stop()
	rtts, err := pingPong(net.Endpoint(0), net.Endpoint(1))
	if err != nil {
		return err
	}
	return lt.em.setMedian("transport.local_rtt_us_p50", rtts)
}

// timeRemoteTransport measures the multi-process transport over loopback
// TCP: small-message round trip, and one-way throughput of 64 KiB frames.
func (lt *layerTimer) timeRemoteTransport() error {
	nets := make([]*transport.RemoteNetwork, 2)
	for i := range nets {
		n, err := transport.NewRemote(transport.RemoteConfig{Nodes: 2, Local: i, Listen: "127.0.0.1:0"})
		if err != nil {
			return err
		}
		defer n.Close()
		nets[i] = n
	}
	defer time.AfterFunc(probeTimeout, func() {
		nets[0].Close()
		nets[1].Close()
	}).Stop()
	nets[0].SetPeer(1, nets[1].Addr())
	nets[1].SetPeer(0, nets[0].Addr())
	ping, echo := nets[0].Endpoint(), nets[1].Endpoint()
	rtts, err := pingPong(ping, echo)
	if err != nil {
		return err
	}
	if err := lt.em.setMedian("transport.remote_rtt_us_p50", rtts); err != nil {
		return err
	}

	frame := make([]byte, streamBytes)
	start := time.Now()
	for i := 0; i < streamFrames; i++ {
		if err := ping.Send(1, 2, frame); err != nil {
			return err
		}
	}
	for i := 0; i < streamFrames; i++ {
		if _, ok := echo.Recv(); !ok {
			return fmt.Errorf("transport: stream stalled after %d frames", i)
		}
	}
	lt.em.set("transport.remote_mb_s", float64(streamFrames*streamBytes)/(1<<20)/time.Since(start).Seconds())
	return nil
}
