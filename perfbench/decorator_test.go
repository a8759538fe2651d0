package main

import (
	"testing"

	"feralcc/internal/db"
	"feralcc/internal/db/conntest"
	"feralcc/internal/storage"
	"feralcc/internal/wire"
)

// The timing decorator must not change what a connection does: the shared
// db.Conn contract suite runs through it, recording, on both seams the
// benchmark could wrap.

func TestTracedConnEmbedded(t *testing.T) {
	conntest.Run(t, func(t *testing.T) db.Conn {
		rec := newRecorder()
		rec.on.Store(true)
		conn := rec.wrap(db.Open(storage.Options{}).Connect())
		t.Cleanup(func() { conn.Close() })
		return conn
	})
}

func TestTracedConnWire(t *testing.T) {
	conntest.Run(t, func(t *testing.T) db.Conn {
		srv := wire.NewServer(storage.Open(storage.Options{}), nil)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve() }()
		c, err := wire.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		rec.on.Store(true)
		conn := rec.wrap(c)
		t.Cleanup(func() {
			conn.Close()
			srv.Close()
			<-served
		})
		return conn
	})
}
