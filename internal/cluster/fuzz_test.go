package cluster

import (
	"bytes"
	"testing"

	"gminer/internal/core"
	"gminer/internal/graph"
	"gminer/internal/transport"
)

// Fuzz targets for every decoder that consumes bytes off the wire. The
// transport delivers whatever a peer (or a chaos-corrupted frame) sends,
// so decoders must reject arbitrary input without panicking or allocating
// proportionally to an attacker-chosen length prefix.

func FuzzDecodePullResp(f *testing.F) {
	f.Add(encodePullResp(nil, nil))
	v := &graph.Vertex{ID: 3, Label: 1, Attrs: []int32{7}, Adj: []graph.VertexID{1, 2}}
	f.Add(encodePullResp([]*graph.Vertex{v}, []graph.VertexID{9}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // huge count, no payload
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodePullResp(data)
		if err != nil {
			return
		}
		for _, e := range entries {
			if e.Present && e.V == nil {
				t.Fatal("present entry with nil vertex")
			}
		}
	})
}

// FuzzDecodeStreamHeader feeds arbitrary frames to the stream header decoder
// and to a stream holding sent frames: a header that decodes leaves its body
// as the frame's tail, and no frame panics the stream, makes it deliver one
// sequence twice, frees a kept frame with an ack of what it never sent, or
// holds a sequence far past the gap.
func FuzzDecodeStreamHeader(f *testing.F) {
	for _, h := range []streamHeader{{seq: 1}, {seq: 5, ack: 3, tick: 2, echo: 1, early: []uint64{5, 6}}, {ack: 4, echo: 1}} {
		f.Add(append(encodeStreamHeader(h), "body"...))
	}
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge early count
	f.Fuzz(func(t *testing.T, data []byte) {
		h, body, err := decodeStreamHeader(data)
		if err != nil {
			return
		}
		if !bytes.HasSuffix(data, body) || len(h.early) > len(data) {
			t.Fatalf("body %d bytes, %d early sequences, of a %d-byte frame", len(body), len(h.early), len(data))
		}
		s := newStream(discardEndpoint{}, 2)
		for i := 0; i < 4; i++ {
			_ = s.Send(1, msgTasks, []byte{byte(i)})
		}
		s.tick()
		m := transport.Message{From: 1, Type: msgTasks, Payload: data}
		if s.deliver(&m) && s.deliver(&transport.Message{From: 1, Type: msgTasks, Payload: data}) {
			t.Fatalf("sequence %d delivered twice", h.seq)
		}
		p := &s.peers[1]
		if h.ack > 4 && len(p.unacked) != 4 {
			t.Fatalf("an ack of %d, past the 4 sent, freed kept frames", h.ack)
		}
		for e := range p.early {
			if e > maxEarly+1 {
				t.Fatalf("sequence %d held past a gap at %d", e, p.got)
			}
		}
	})
}

func FuzzDecodeProgress(f *testing.F) {
	f.Add(encodeProgress(&progressReport{Worker: 1, Inflight: 5, AggSet: true, AggBytes: []byte{1, 2}}))
	f.Add(encodeProgress(&progressReport{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeProgress(data)
	})
}

func FuzzDecodeMigrate(f *testing.F) {
	f.Add(encodeMigrate(2, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = decodeMigrate(data)
	})
}

func FuzzDecodeManifest(f *testing.F) {
	f.Add(encodeManifest(&manifest{Fingerprint: 7, Workers: 2, Epoch: 3,
		EpochCRCs: []uint32{1, 2}, PrevEpoch: 1, PrevCRCs: []uint32{3, 4}}))
	f.Add(encodeManifest(&manifest{Fingerprint: 1, Workers: 1, Epoch: 1,
		EpochCRCs: []uint32{9}, PrevEpoch: noEpoch}))
	f.Add(frame(manifestMagic, []byte(`{"workers":2,"epoch_crcs":[1],"prev_epoch":-1}`)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		// Anything that decodes must uphold the invariants restore leans on.
		if m.Workers <= 0 || len(m.EpochCRCs) != m.Workers {
			t.Fatalf("invalid manifest decoded cleanly: %+v", m)
		}
		if m.PrevEpoch != noEpoch && (m.PrevEpoch >= m.Epoch || len(m.PrevCRCs) != m.Workers) {
			t.Fatalf("inconsistent previous epoch decoded cleanly: %+v", m)
		}
	})
}

func FuzzUnframeSnapshot(f *testing.F) {
	f.Add(frame(snapshotMagic, encodeSnapshot(&workerSnapshot{Epoch: 1, Results: []string{"x"}})))
	f.Add(frame(snapshotMagic, nil))
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, crc, err := unframe(snapshotMagic, data)
		if err != nil {
			return
		}
		if got := checksum(payload); got != crc {
			t.Fatalf("unframe accepted payload with checksum %08x, reported %08x", got, crc)
		}
	})
}

// FuzzDecodeSnapshot walks a snapshot as restore does: the frame's payload,
// then its task list.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(&workerSnapshot{Epoch: 3, SeedCursor: 7, Results: []string{"a", "b"}}))
	f.Add(encodeSnapshot(&workerSnapshot{AggBytes: []byte{1}}))
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	task := &core.Task{ID: 42, Cands: []graph.VertexID{1, 2, 3}}
	task.Subgraph.AddEdge(1, 2)
	f.Add(encodeSnapshot(&workerSnapshot{Epoch: 2, TaskBytes: taskList([]*core.Task{task}, core.NoContext{})}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("nil snapshot without error")
		}
		tasks, err := core.DecodeTasks(s.TaskBytes, core.NoContext{})
		if err != nil {
			return
		}
		for _, task := range tasks {
			if task == nil {
				t.Fatal("decoded nil task without error")
			}
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeCtrl(helloFrame{Version: handshakeVersion, Node: -1, Fingerprint: 42, Advertise: "127.0.0.1:7078",
		Held: []heldEpochs{{JobID: "job-1", Epochs: []int64{5, 3}}}}))
	f.Add(encodeCtrl(helloFrame{Version: handshakeVersion + 9, Node: 2, Fingerprint: 1, Advertise: "h:1"}))
	f.Add([]byte("GMHS\x03\x02")) // a pre-v4 binary hello's opening
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		if h.Version != handshakeVersion {
			t.Fatalf("accepted hello with version %d", h.Version)
		}
		if len(h.Advertise) > maxHandshakeAddr {
			t.Fatalf("accepted %d-byte advertise address", len(h.Advertise))
		}
		if len(h.Held) > maxHeldJobs {
			t.Fatalf("accepted %d held jobs", len(h.Held))
		}
		for _, he := range h.Held {
			if len(he.JobID) > maxHeldJobID || len(he.Epochs) > maxHeldEpochs {
				t.Fatalf("accepted held entry with a %d-byte job id and %d epochs", len(he.JobID), len(he.Epochs))
			}
		}
	})
}

// The control plane is JSON, so the decoder cannot rely on per-field
// length clamps the way the binary codecs do; it must instead refuse
// oversized frames outright and reject malformed JSON without panicking,
// whatever struct the caller aims it at.
func FuzzDecodeCtrl(f *testing.F) {
	f.Add(encodeCtrl(jobStartMsg{Channel: 1, JobID: "job-1",
		Resume: &resumeEpochRef{Epoch: 3, CRC: 7}}))
	f.Add(encodeCtrl(jobStopMsg{Channel: 2}))
	f.Add(encodeCtrl(jobResultMsg{Channel: 1, JobID: "job-1", Worker: 0,
		Records: []string{"r"}, Gen: 2}))
	f.Add(encodeCtrl(topologyMsg{Peers: []string{"a:1", "", "c:3"}, Gens: []int64{1, 0, 2}}))
	f.Add(encodeCtrl(heartbeatMsg{Gen: 3, Draining: true}))
	f.Add(encodeCtrl(drainMsg{Gen: 1}))
	f.Add([]byte("{"))
	f.Add([]byte(`{"gen":"not a number"}`))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var start jobStartMsg
		_ = decodeCtrl(data, &start)
		var res jobResultMsg
		_ = decodeCtrl(data, &res)
		var topo topologyMsg
		_ = decodeCtrl(data, &topo)
		var hb heartbeatMsg
		_ = decodeCtrl(data, &hb)
		var dr drainMsg
		_ = decodeCtrl(data, &dr)
	})
}

func FuzzDecodeWelcome(f *testing.F) {
	f.Add(encodeCtrl(welcomeFrame{Version: handshakeVersion, OK: true, Node: 1, Workers: 3, Peers: []string{"a:1", "", "c:3"}}))
	f.Add(encodeCtrl(welcomeFrame{Version: handshakeVersion, OK: false, Reason: "fingerprint mismatch"}))
	f.Add([]byte("GMWL\x03\x01")) // a pre-v4 binary welcome's opening
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := decodeWelcome(data)
		if err != nil {
			return
		}
		if w.Version != handshakeVersion {
			t.Fatalf("accepted welcome with version %d", w.Version)
		}
		if len(w.Peers) > maxHandshakePeers {
			t.Fatalf("accepted %d-entry peer table", len(w.Peers))
		}
		for _, p := range w.Peers {
			if len(p) > maxHandshakeAddr {
				t.Fatalf("accepted %d-byte peer address", len(p))
			}
		}
	})
}
