package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerLimits pins the boundary limits the daemon listens with.
func TestNewHTTPServerLimits(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer("127.0.0.1:0", h)
	if s.Addr != "127.0.0.1:0" || s.Handler != h {
		t.Fatalf("address or handler not wired: %q %v", s.Addr, s.Handler)
	}
	if s.ReadHeaderTimeout != readHeaderTimeout || s.IdleTimeout != idleTimeout || s.MaxHeaderBytes != maxHeaderBytes {
		t.Fatalf("limits: header %v idle %v header bytes %d", s.ReadHeaderTimeout, s.IdleTimeout, s.MaxHeaderBytes)
	}
	if s.ReadHeaderTimeout <= 0 || s.MaxHeaderBytes <= 0 {
		t.Fatal("a zero limit means none")
	}
	// An idle keep-alive connection must outlive the longest quiet spell of
	// a steady client by a wide margin.
	if s.IdleTimeout < time.Minute {
		t.Fatalf("idle timeout %v is too close to a client's quiet spells", s.IdleTimeout)
	}
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Fatal("a whole-request timeout would cut off large ingest batches on slow links")
	}
}
