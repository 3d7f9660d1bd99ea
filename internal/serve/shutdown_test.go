package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestShutdownDrainsInFlightBatch: ending the context of a listening
// server while an /execute_batch runs lets that request finish with its
// 200 body, then the server returns nil and accepts no more
// connections.
func TestShutdownDrainsInFlightBatch(t *testing.T) {
	srv, _ := newTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.serve(ctx, ln) }()

	// Four cross-product plans (the optimal reference and k=3), each cut
	// by a 150 ms deadline: the batch runs for about 600 ms.
	blob, err := json.Marshal(ExecuteBatchRequest{QueryRequest: QueryRequest{SQL: crossSQL, Cross: true}, K: 3, Seed: 2, TimeoutMs: 150})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		body   []byte
		err    error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/execute_batch", "application/json", bytes.NewReader(blob))
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		replied <- reply{resp.StatusCode, body, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.reqs[epExecuteBatch].Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the batch request never reached its handler")
		}
	}
	cancel()

	r := <-replied
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight batch: status %d, err %v, body %s", r.status, r.err, r.body)
	}
	var resp ExecuteBatchResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		t.Fatalf("decoding %q: %v", r.body, err)
	}
	if len(resp.Plans) != 3 {
		t.Errorf("%d plans in the drained batch, want 3", len(resp.Plans))
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("serve returned %v after a drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after its context ended")
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Error("the server still accepts connections after shutdown")
	}
}
