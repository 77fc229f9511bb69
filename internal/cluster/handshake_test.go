package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestHandshakeHelloRoundTrip(t *testing.T) {
	in := helloFrame{
		Version:     handshakeVersion,
		Node:        -1,
		Fingerprint: 0xdeadbeefcafe,
		Advertise:   "127.0.0.1:41234",
	}
	out, err := decodeHello(encodeCtrl(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}

	// A rejoining worker's hello also carries its held checkpoint epochs.
	in.Held = []heldEpochs{
		{JobID: "job-1", Epochs: []int64{5, 3}},
		{JobID: "job-2", Epochs: []int64{12}},
	}
	out, err = decodeHello(encodeCtrl(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("held round trip: got %+v want %+v", out, in)
	}
}

func TestHandshakeWelcomeRoundTrip(t *testing.T) {
	for _, in := range []welcomeFrame{
		{Version: handshakeVersion, OK: true, Node: 2, Workers: 3,
			Peers: []string{"127.0.0.1:1", "", "127.0.0.1:3", "127.0.0.1:4"}, Generation: 7},
		{Version: handshakeVersion, OK: false, Reason: "fingerprint mismatch"},
	} {
		out, err := decodeWelcome(encodeCtrl(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: got %+v want %+v", out, in)
		}
	}
}

// handshakeRow is one malformed hello or welcome: decoding it must fail
// with an error naming wantSub, unwrapping to errVersionMismatch exactly
// when wantVersion is set — never a panic or a silently-wrong frame.
type handshakeRow struct {
	name        string
	data        []byte
	wantSub     string
	wantVersion bool
}

func runHandshakeRows[T any](t *testing.T, decode func([]byte) (T, error), rows []handshakeRow) {
	t.Helper()
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decode(tc.data)
			if err == nil {
				t.Fatalf("accepted a malformed frame: %.80q", tc.data)
			}
			if tc.wantVersion != errors.Is(err, errVersionMismatch) {
				t.Fatalf("error %v: errVersionMismatch=%v, want %v", err, !tc.wantVersion, tc.wantVersion)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestDecodeHelloRejects(t *testing.T) {
	good := helloFrame{Version: handshakeVersion, Node: 1, Fingerprint: 42, Advertise: "127.0.0.1:9"}
	goodBytes := encodeCtrl(good)
	with := func(mutate func(h *helloFrame)) []byte {
		h := good
		mutate(&h)
		return encodeCtrl(h)
	}
	held := func(jobs, epochs, idLen int) []heldEpochs {
		out := make([]heldEpochs, jobs)
		for i := range out {
			out[i] = heldEpochs{JobID: strings.Repeat("j", idLen), Epochs: make([]int64, epochs)}
		}
		return out
	}
	const garbled = "not a v5 handshake"
	runHandshakeRows(t, decodeHello, []handshakeRow{
		{name: "empty", data: nil, wantSub: garbled},
		// A stray frame.
		{name: "bad magic", data: []byte("XXXX\x01\x02"), wantSub: garbled},
		// The opening of a pre-v4 binary hello.
		{name: "magic only", data: []byte("GMHS\x03\x02"), wantSub: garbled},
		{name: "truncated after version", data: goodBytes[:len(`{"version":4`)], wantSub: garbled},
		{name: "truncated mid-address", data: goodBytes[:len(goodBytes)-8], wantSub: garbled},
		{name: "trailing garbage", data: append(append([]byte{}, goodBytes...), 0xAA), wantSub: garbled},
		{name: "version mismatch", wantVersion: true, wantSub: "peer speaks v6",
			data: with(func(h *helloFrame) { h.Version = handshakeVersion + 1 })},
		// A later version may reshape any other field; it is still told
		// apart as a version skew.
		{name: "version mismatch with a reshaped field", wantVersion: true, wantSub: "peer speaks v6",
			data: []byte(`{"version":6,"node":"any","held":{}}`)},
		// Refused on its size, before any of it is decoded.
		{name: "huge address length prefix", wantSub: "exceeds",
			data: with(func(h *helloFrame) { h.Advertise = strings.Repeat("a", maxHandshakeFrame) })},
		{name: "address over bound", wantSub: "advertise address 257 bytes",
			data: with(func(h *helloFrame) { h.Advertise = strings.Repeat("a", maxHandshakeAddr+1) })},
		{name: "too many held jobs", wantSub: "257 held jobs",
			data: with(func(h *helloFrame) { h.Held = held(maxHeldJobs+1, 1, 1) })},
		{name: "held job id over bound", wantSub: "held job id 257 bytes",
			data: with(func(h *helloFrame) { h.Held = held(1, 1, maxHeldJobID+1) })},
		{name: "too many held epochs", wantSub: "17 held epochs",
			data: with(func(h *helloFrame) { h.Held = held(1, maxHeldEpochs+1, 1) })},
	})
	// Every bound is inclusive.
	at := with(func(h *helloFrame) {
		h.Advertise = strings.Repeat("a", maxHandshakeAddr)
		h.Held = held(maxHeldJobs, maxHeldEpochs, maxHeldJobID)
	})
	if _, err := decodeHello(at); err != nil {
		t.Fatalf("hello at every bound refused: %v", err)
	}
}

func TestDecodeWelcomeRejects(t *testing.T) {
	good := welcomeFrame{Version: handshakeVersion, OK: true, Node: 0, Workers: 3, Peers: []string{"a:1", "b:2"}}
	goodBytes := encodeCtrl(good)
	with := func(mutate func(w *welcomeFrame)) []byte {
		wf := good
		mutate(&wf)
		return encodeCtrl(wf)
	}
	const garbled = "not a v5 handshake"
	runHandshakeRows(t, decodeWelcome, []handshakeRow{
		{name: "empty", data: nil, wantSub: garbled},
		// The opening of a pre-v4 binary welcome.
		{name: "bad magic", data: []byte("GMWL\x03\x01"), wantSub: garbled},
		{name: "truncated", data: goodBytes[:6], wantSub: garbled},
		{name: "truncated peer table", data: goodBytes[:bytes.Index(goodBytes, []byte(`"b:2"`))], wantSub: garbled},
		{name: "trailing garbage", data: append(append([]byte{}, goodBytes...), 1), wantSub: garbled},
		{name: "version mismatch", wantVersion: true, wantSub: "peer speaks v6",
			data: with(func(w *welcomeFrame) { w.Version = handshakeVersion + 1 })},
		{name: "frame over byte cap", wantSub: "exceeds",
			data: with(func(w *welcomeFrame) { w.Reason = strings.Repeat("r", maxHandshakeFrame) })},
		{name: "huge peer count", wantSub: "4097 peers",
			data: with(func(w *welcomeFrame) { w.Peers = make([]string, maxHandshakePeers+1) })},
		{name: "peer address over bound", wantSub: "peer address 257 bytes",
			data: with(func(w *welcomeFrame) { w.Peers = []string{"a:1", strings.Repeat("p", maxHandshakeAddr+1)} })},
	})
}

// The coordinator's admission gates: a decodable hello can still be
// refused for a fingerprint or slot mismatch.
func TestValidateHello(t *testing.T) {
	const fp = uint64(0x1234)
	base := helloFrame{Version: handshakeVersion, Node: -1, Fingerprint: fp, Advertise: "h:1"}

	if err := validateHello(base, fp, 3); err != nil {
		t.Fatalf("matching hello refused: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(h *helloFrame)
		wantSub string
	}{
		{"fingerprint mismatch", func(h *helloFrame) { h.Fingerprint = fp + 1 }, "fingerprint"},
		{"slot out of range", func(h *helloFrame) { h.Node = 3 }, "claimed node"},
		{"no advertise addr", func(h *helloFrame) { h.Advertise = "" }, "advertise"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := base
			tc.mutate(&h)
			err := validateHello(h, fp, 3)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
