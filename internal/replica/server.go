package replica

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// writeTimeout bounds every frame write so a wedged peer cannot pin a
// server goroutine forever.
const writeTimeout = 10 * time.Second

// ServerOptions tune one serving endpoint.
type ServerOptions struct {
	// TierOnly is the memory-pressure degraded mode: the endpoint
	// refuses full advice queries with the degraded wire code and serves
	// only coarse tier snapshots, the Balliu-style local-decompression
	// trade (PAPERS.md) — the client pays extra decoder rounds instead
	// of the full snapshot's memory.
	TierOnly bool
}

// Server serves a service's epochs over the binary wire protocol: point
// queries (advice, tier, info) and the epoch-log tail stream replicas
// follow. A primary runs it with the log its service publishes into; a
// replica runs it with a nil log (or its own copy) to serve reads.
type Server struct {
	svc  *service.Service
	log  *Log
	opts ServerOptions
	met  *srvMetrics

	ln   net.Listener
	stop chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a service (and optionally its epoch log, required for
// tail subscriptions) for wire serving.
func NewServer(svc *service.Service, log *Log, opts ServerOptions) *Server {
	return &Server{svc: svc, log: log, opts: opts, met: newSrvMetrics(), stop: make(chan struct{}), conns: make(map[net.Conn]struct{})}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts the accept loop.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close hard-stops the endpoint: the listener and every open connection
// die immediately — the "kill a replica mid-run" primitive the chaos
// harness uses. In-flight answers are cut, exactly as a crash would.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	var req []byte // one buffer for every request on the connection
	for {
		var err error
		if req, err = store.ReadRecord(br, maxRequest, req); err != nil || len(req) == 0 {
			return
		}
		if req[0] == opTail {
			s.met.tailSessions.Add(1)
			s.streamLog(conn, store.NewCursor(req[1:]))
			s.met.tailSessions.Add(-1)
			return
		}
		if !s.writeFrame(conn, s.answer(req)) {
			return
		}
	}
}

// answer maps one request payload — non-empty, any opcode but opTail,
// which streams from serveConn — to its reply payload.
func (s *Server) answer(req []byte) []byte {
	c := store.NewCursor(req[1:])
	var reply []byte
	switch req[0] {
	case opAdvice:
		reply = s.handleAdvice(c)
	case opTier:
		reply = s.handleTier(c)
	case opInfo:
		reply = s.handleInfo(c)
	default:
		reply = errReply(codeBad, "unknown opcode")
	}
	result := "ok"
	if reply[0] == rErr {
		result = "error"
	}
	s.met.frame(opName(req[0]), result, len(reply))
	return reply
}

func (s *Server) writeFrame(conn net.Conn, payload []byte) bool {
	return writeFramed(conn, store.AppendRecord(nil, payload))
}

// writeFramed writes one already-framed record.
func writeFramed(conn net.Conn, frame []byte) bool {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := conn.Write(frame)
	return err == nil
}

func (s *Server) handleAdvice(c *store.Cursor) []byte {
	id, err := c.String("graph ID", store.MaxString)
	if err != nil {
		return errReply(codeBad, err.Error())
	}
	node, err := c.Uvarint("node")
	if err != nil {
		return errReply(codeBad, err.Error())
	}
	if s.opts.TierOnly {
		return errReply(codeDegraded, "endpoint serves only coarse tiers")
	}
	bits, epoch, err := s.svc.AdviceBits(id, int(node))
	if err != nil {
		return serviceErrReply(err)
	}
	buf := []byte{rOK}
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, uint64(bits.Len()))
	return store.AppendBits(buf, bits)
}

func (s *Server) handleTier(c *store.Cursor) []byte {
	id, err := c.String("graph ID", store.MaxString)
	if err != nil {
		return errReply(codeBad, err.Error())
	}
	level, err := c.Uvarint("tier level")
	if err != nil {
		return errReply(codeBad, err.Error())
	}
	tier, err := s.svc.TierSnapshot(id, int(level))
	if err != nil {
		return serviceErrReply(err)
	}
	buf := []byte{rOK}
	buf = binary.AppendUvarint(buf, uint64(tier.Level))
	buf = binary.AppendUvarint(buf, tier.Epoch)
	return append(buf, tier.Snapshot...)
}

func (s *Server) handleInfo(c *store.Cursor) []byte {
	id, err := c.String("graph ID", store.MaxString)
	if err != nil {
		return errReply(codeBad, err.Error())
	}
	ep, err := s.svc.Epoch(id)
	if err != nil {
		return serviceErrReply(err)
	}
	buf := []byte{rOK}
	buf = binary.AppendUvarint(buf, ep.Seq)
	buf = binary.AppendUvarint(buf, uint64(ep.Graph.N()))
	buf = binary.AppendUvarint(buf, uint64(ep.Graph.M()))
	if s.opts.TierOnly {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func serviceErrReply(err error) []byte {
	if service.IsNotFound(err) {
		return errReply(codeNotFound, err.Error())
	}
	return errReply(codeBad, err.Error())
}

// streamLog serves a tail subscription: every log record from the
// requested index onward, then each new record as it is appended, until
// the connection dies or the server closes. Records ship in log order
// on one connection — the transport-level half of the consistent-prefix
// guarantee. A stored log frame is byte-identical to its wire frame, so
// each record is read into one buffer reused for the whole session and
// written unchanged; a failed read ends the stream, and the follower
// reconnects.
func (s *Server) streamLog(conn net.Conn, c *store.Cursor) {
	if s.log == nil {
		s.met.frame("tail", "error", 0)
		s.writeFrame(conn, errReply(codeBad, "endpoint serves no epoch log"))
		return
	}
	after, err := c.Uvarint("tail index")
	if err != nil {
		s.met.frame("tail", "error", 0)
		s.writeFrame(conn, errReply(codeBad, err.Error()))
		return
	}
	s.met.frame("tail", "ok", 0)
	var frame []byte
	for i := int(after); ; i++ {
		if !s.log.WaitFor(i, s.stop) {
			return
		}
		var payload int
		if frame, payload, err = s.log.frame(i, frame); err != nil {
			return
		}
		if !writeFramed(conn, frame) {
			return
		}
		s.met.tailRecords.Inc()
		s.met.replyBytes["tail"].Add(uint64(payload)) // the payload, as for every op
	}
}
