package main

import (
	"context"
	"net"
	"net/http"
	"path"
	"strconv"
	"sync/atomic"
	"time"

	"mstadvice/internal/service"
)

// parentHeader carries the client span id to the server side, so a
// handler span nests under the request that caused it.
const parentHeader = "Bench-Parent-Span"

// webServer serves service.NewHandler on loopback. While a tracer is
// set, every handler call is a span named service.<endpoint>_handler.
type webServer struct {
	srv  *http.Server
	base string
	done chan error
	tr   atomic.Pointer[tracer]
}

func startWeb(svc *service.Service) (*webServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := &webServer{base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	h := service.NewHandler(svc, false)
	ws.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := ws.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, req)
			return
		}
		name := "service." + path.Base(req.URL.Path) + "_handler"
		if parent, err := strconv.Atoi(req.Header.Get(parentHeader)); err == nil {
			id := tr.start(name, parent)
			h.ServeHTTP(w, req)
			tr.end(id)
			return
		}
		// Requests without a parent span are the high-frequency advice
		// reads, summed under their client span.
		t0 := time.Now()
		h.ServeHTTP(w, req)
		tr.add(name, httpReadSpan, time.Since(t0))
	})}
	go func() { ws.done <- ws.srv.Serve(ln) }()
	return ws, nil
}

// close stops the server and waits for it and its handlers to finish.
func (ws *webServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ws.srv.Shutdown(ctx) != nil {
		ws.srv.Close()
	}
	<-ws.done
}

// newHTTPClient is one keep-alive connection's worth of client.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
}
