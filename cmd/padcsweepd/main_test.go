package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestServerDropsPartialHeader holds a connection open after sending only
// part of a request header: the server must close it once
// readHeaderTimeout passes instead of holding the connection forever.
func TestServerDropsPartialHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the read-header timeout")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut long-lived row streams", srv.WriteTimeout)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: padcsweepd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	_, err = io.ReadAll(conn)
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		t.Fatalf("connection still open %v after a partial header", time.Since(start))
	case time.Since(start) < readHeaderTimeout/2:
		t.Fatalf("connection closed after %v, before the header timeout", time.Since(start))
	}
}
