package cluster

import (
	"testing"

	"gminer/internal/metrics"
	"gminer/internal/transport"
)

// TestStealSizing drives the master's steal scheduling from synthetic
// progress reports, like TestTerminationDecision drives termination: what a
// MIGRATE asks for is half the gap between the fullest store and the
// thief's, never under StealBatch, and a gap under StealBatch moves nothing.
func TestStealSizing(t *testing.T) {
	store := func(w int, size int64) *progressReport {
		return &progressReport{Worker: w, SeedsDone: true, Inflight: size, StoreSize: size}
	}
	const thief = 2
	cases := []struct {
		name    string
		reports []*progressReport // a nil slot never reported (or was just replaced)
		failed  []int
		ckpt    bool
		// want: the victim and batch of the MIGRATE, or victim -1 for a
		// msgNoTask to the thief, or -2 for no message at all.
		victim, tnum int
	}{
		{name: "half the gap", reports: []*progressReport{store(0, 10_000), store(1, 400), store(2, 0)}, victim: 0, tnum: 5_000},
		{name: "the thief's own store narrows the gap", reports: []*progressReport{store(0, 10_000), store(1, 400), store(2, 2_000)}, victim: 0, tnum: 4_000},
		{name: "thief yet to report counts as empty", reports: []*progressReport{store(0, 300), store(1, 900), nil}, victim: 1, tnum: 450},
		{name: "StealBatch is the floor", reports: []*progressReport{store(0, 40), store(1, 0), store(2, 0)}, victim: 0, tnum: 32},
		{name: "gap at the floor still moves", reports: []*progressReport{store(0, 32), store(1, 0), store(2, 0)}, victim: 0, tnum: 32},
		{name: "gap under the floor moves nothing", reports: []*progressReport{store(0, 31), store(1, 0), store(2, 0)}, victim: -1},
		{name: "level stores move nothing", reports: []*progressReport{store(0, 500), store(1, 480), store(2, 490)}, victim: -1},
		{name: "nobody has work", reports: []*progressReport{store(0, 0), store(1, 0), store(2, 0)}, victim: -1},
		{name: "failed victim is skipped", reports: []*progressReport{store(0, 10_000), store(1, 600), store(2, 0)}, failed: []int{0}, victim: 1, tnum: 300},
		{name: "recovering victim is skipped", reports: []*progressReport{nil, store(1, 600), store(2, 0)}, victim: 1, tnum: 300},
		{name: "checkpoint pending freezes stealing", reports: []*progressReport{store(0, 10_000), store(1, 0), store(2, 0)}, ckpt: true, victim: -2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: 3, Stealing: true}.Defaults()
			net := transport.NewLocal(transport.LocalConfig{Nodes: 4})
			defer net.Close()
			m := newMaster(cfg, net.Endpoint(3), nil, &metrics.Counters{}, nil, nil, nil)
			for _, r := range tc.reports {
				if r != nil {
					m.handle(transport.Message{From: r.Worker, Type: msgProgress, Payload: encodeProgress(r)})
				}
			}
			for _, w := range tc.failed {
				m.failed[w] = true
			}
			if tc.ckpt {
				m.ckptPending = 1
			}
			m.handle(transport.Message{From: thief, Type: msgStealReq})

			var got []transport.Message
			for w := 0; w < cfg.Workers; w++ {
				for {
					msg, ok := net.Endpoint(w).RecvTimeout(0)
					if !ok {
						break
					}
					got = append(got, msg)
				}
			}
			switch {
			case tc.victim == -2:
				if len(got) != 0 {
					t.Fatalf("sent %+v with a checkpoint pending", got)
				}
			case len(got) != 1:
				t.Fatalf("sent %d messages, want one", len(got))
			case tc.victim == -1:
				if got[0].To != thief || got[0].Type != msgNoTask {
					t.Fatalf("sent type %d to %d, want msgNoTask to the thief", got[0].Type, got[0].To)
				}
			default:
				to, tnum, err := decodeMigrate(got[0].Payload)
				if got[0].Type != msgMigrate || got[0].To != tc.victim || err != nil || to != thief || tnum != tc.tnum {
					t.Fatalf("sent type %d to %d: migrate %d tasks to %d (%v); want %d tasks from %d",
						got[0].Type, got[0].To, tnum, to, err, tc.tnum, tc.victim)
				}
			}
		})
	}
}
