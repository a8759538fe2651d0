package main

import (
	"bytes"
	"reflect"
	"testing"

	"feralcc/internal/histcheck"
)

var mixes = map[string]servingMix{
	"validate-scan":  {},
	"read-mostly":    {readShare: 0.9, freshCreates: true},
	"durable-commit": {freshCreates: true},
}

func requests(mix servingMix, seed int64, client, n int) []request {
	s := newRequestStream(mix, seed, client)
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// TestRequestsDeterministic pins that a seed fixes every client's request
// sequence, and that another seed changes it.
func TestRequestsDeterministic(t *testing.T) {
	for name, mix := range mixes {
		for c := 0; c < clients; c++ {
			a, b := requests(mix, 7, c, 2000), requests(mix, 7, c, 2000)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: seed 7 gave two different sequences", name, c)
			}
			if reflect.DeepEqual(a, requests(mix, 8, c, 2000)) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same sequence", name, c)
			}
		}
	}
}

func historyBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := histcheck.WriteJSONL(&buf, genHistory(seed, historyShape)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHistoryDeterministic pins that a seed fixes the history-check input
// byte for byte, that another seed changes it, and that the history is the
// size the workload promises: larger than the live watcher's window.
func TestHistoryDeterministic(t *testing.T) {
	a, b := historyBytes(t, 7), historyBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 gave two different histories")
	}
	if bytes.Equal(a, historyBytes(t, 8)) {
		t.Fatal("seeds 7 and 8 gave the same history")
	}
	events := genHistory(7, historyShape)
	if len(events) < 200_000 {
		t.Fatalf("history has %d events, want a few hundred thousand", len(events))
	}
	rep := histcheck.Check(events)
	if rep.Transactions <= 4096 {
		t.Fatalf("history has %d transactions, want more than the watcher's 4,096 window", rep.Transactions)
	}
	allowed := histcheck.Allowed("READ COMMITTED")
	for _, f := range rep.Findings {
		if !allowed[f.Anomaly] {
			t.Errorf("finding outside READ COMMITTED's allowed set: %s %s", f.Anomaly, f.Witness)
		}
	}
}
