// Package webserver is the paper's third benchmark: a micro benchmark
// that emulates a multithreaded web server issuing intensive read and
// write operations to a local disk (§4).
//
// The structure follows §4.1 exactly: a main goroutine accepts
// connections (the TcpListener/AcceptSocket path) and hands each socket
// to a per-connection worker (the "work" class with StartListen), which
// reads the request into a buffer, parses it for the request type and
// file name, and dispatches to doGet (read the file, send it back) or
// doPost (write the body to a new file named by a random-number
// generator, so writes need no synchronization). File I/O goes through
// the managed vm.FileStream/StreamWriter wrappers over a fsim store, and
// the time charged to each read/write — creating the stream, moving the
// data, closing the stream — is recorded per request, as the paper does
// with QueryPerformanceCounter.
package webserver

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsim"
	"repro/internal/vm"
)

// DefaultPort is the port the paper's server listens on.
const DefaultPort = 5050

// RequestKind distinguishes GET and POST records.
type RequestKind string

// Request kinds.
const (
	KindGet  RequestKind = "GET"
	KindPost RequestKind = "POST"
)

// RequestRecord is the server's measurement of one request's file I/O.
type RequestRecord struct {
	Kind RequestKind
	File string
	// Size is the number of bytes read or written.
	Size int64
	// IOTime is the file I/O portion of handling the request: stream
	// construction + data movement + close, the quantity of Tables 5-6.
	IOTime time.Duration
	// Status is the HTTP status the request answered with: 200 on
	// success, 503 when the shed policy refused or abandoned it.
	Status int
	// Shed marks a request refused by admission control (no file I/O was
	// performed; IOTime is zero).
	Shed bool
	// Deadlined marks a request whose file I/O exceeded the shed
	// policy's deadline: the I/O is billed (IOTime carries it) but the
	// client got a 503 instead of the payload.
	Deadlined bool
}

// IOTimeMS returns the I/O time in milliseconds.
func (r RequestRecord) IOTimeMS() float64 { return float64(r.IOTime) / float64(time.Millisecond) }

// Config wires a server.
type Config struct {
	// Addr is the listen address; empty means 127.0.0.1 on an ephemeral
	// port (tests) — production runs use fmt.Sprintf(":%d", DefaultPort).
	Addr string
	// Store is the file store served.
	Store fsim.Store
	// Runtime is the managed runtime all I/O goes through.
	Runtime *vm.Runtime
	// PoolSize switches the concurrency model: zero spawns one worker per
	// connection (the paper's design, "the number of threads increases
	// with the increasing number of clients"); a positive value serves
	// all connections from a fixed pool instead — the ablation
	// BenchmarkAblationServerModel compares the two.
	PoolSize int
	// Lanes gives every connection its own virtual-time session when the
	// store supports it (fsim.FileStore): concurrent requests then
	// advance simulated time in parallel — max-over-connections — the
	// way they overlap on real hardware, instead of serializing on the
	// store's one clock. Off by default: the paper's tables are produced
	// on the shared clock.
	Lanes bool
	// Shed is the graceful-degradation policy (admission control +
	// per-request I/O deadline). The zero policy never sheds.
	Shed ShedPolicy
}

// laneStore is the store capability Lanes uses; *fsim.FileStore
// implements it.
type laneStore interface {
	NewSession() *fsim.Session
}

// Server is the multithreaded web server.
type Server struct {
	cfg      Config
	listener net.Listener
	wg       sync.WaitGroup
	inFlight atomic.Int64

	mu      sync.Mutex
	records []RequestRecord
	nextID  uint64 // deterministic stand-in for the paper's RNG file names
	closed  bool
	conns   map[net.Conn]struct{}
}

// New validates the configuration and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("webserver: nil store")
	}
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("webserver: nil runtime")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if err := cfg.Shed.Validate(); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, conns: make(map[net.Conn]struct{})}, nil
}

// admit applies admission control: it claims an in-flight slot, or
// reports that the request must be shed. done returns the slot.
func (s *Server) admit() bool {
	max := int64(s.cfg.Shed.MaxInFlight)
	if max <= 0 {
		return true
	}
	if s.inFlight.Add(1) > max {
		s.inFlight.Add(-1)
		return false
	}
	return true
}

func (s *Server) done() {
	if s.cfg.Shed.MaxInFlight > 0 {
		s.inFlight.Add(-1)
	}
}

// track registers a live connection; it reports false when the server is
// already closed (the connection is then rejected).
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

// untrack removes a finished connection.
func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Start begins listening and accepting. It returns the bound address.
func (s *Server) Start() (string, error) {
	s.cfg.Runtime.Invoke(vm.MethodTcpListenerStart)
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", fmt.Errorf("webserver: listen: %w", err)
	}
	s.listener = ln
	var pool chan net.Conn
	if s.cfg.PoolSize > 0 {
		pool = make(chan net.Conn)
		for i := 0; i < s.cfg.PoolSize; i++ {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				for conn := range pool {
					s.startListen(conn)
					s.untrack(conn)
				}
			}()
		}
	}
	s.wg.Add(1)
	go s.acceptLoop(pool)
	return ln.Addr().String(), nil
}

// acceptLoop is the main thread: accept a socket and hand it to a worker
// — a fresh goroutine per connection (the paper's model) or the fixed
// pool when configured.
func (s *Server) acceptLoop(pool chan net.Conn) {
	if pool != nil {
		defer close(pool)
	}
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.cfg.Runtime.Invoke(vm.MethodAcceptSocket)
		if !s.track(conn) {
			conn.Close()
			return
		}
		if pool != nil {
			pool <- conn
			continue
		}
		s.cfg.Runtime.Invoke(vm.MethodThreadStart)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.startListen(conn)
		}()
	}
}

// Close stops accepting, closes live connections, and waits for in-flight
// workers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

// Records returns a copy of the per-request measurements in arrival
// order.
func (s *Server) Records() []RequestRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RequestRecord, len(s.records))
	copy(out, s.records)
	return out
}

// record appends a measurement.
func (s *Server) record(r RequestRecord) {
	s.mu.Lock()
	s.records = append(s.records, r)
	s.mu.Unlock()
}

// startListen is the per-connection worker (§4.1's StartListen): create a
// network stream, read the incoming data into a byte array, parse it, and
// dispatch. Connections are persistent: the worker serves requests until
// the peer closes. With Lanes on, the worker's file I/O runs on its own
// virtual-time session.
func (s *Server) startListen(conn net.Conn) {
	st := s.cfg.Store
	var sess *fsim.Session
	if s.cfg.Lanes {
		if ls, ok := st.(laneStore); ok {
			sess = ls.NewSession()
			// Retire the lane when the connection ends: its time folds
			// into the store's timeline, so long-running servers do not
			// accumulate dead lanes.
			defer sess.Release()
			st = sess
		}
	}
	ns := vm.NewNetworkStream(s.cfg.Runtime, conn)
	defer ns.Close()
	br := bufio.NewReader(readerFunc(ns.Read))
	for {
		if sess != nil {
			// Waiting on the network is outside simulated time: park the
			// lane so a shared disk queue does not conservatively hold
			// other connections' requests for this one. The next file
			// operation unparks it.
			sess.Idle()
		}
		req, err := parseRequest(br, s.cfg.Runtime)
		if err != nil {
			if err != io.EOF {
				writeResponse(ns, 400, fmt.Sprintf("bad request: %v", err), 0)
			}
			return
		}
		switch req.kind {
		case KindGet, KindPost:
			if !s.admit() {
				// Overload: shed before any file I/O so the disk path's
				// backlog stops growing; the refusal is recorded — the
				// degradation is part of the measurement.
				s.record(RequestRecord{Kind: req.kind, File: req.file, Status: 503, Shed: true})
				writeResponse(ns, 503, "server busy", 0)
				continue
			}
			if req.kind == KindGet {
				s.doGet(ns, st, req)
			} else {
				s.doPost(ns, st, req)
			}
			s.done()
		default:
			writeResponse(ns, 400, "unsupported method", 0)
		}
	}
}

// request is a parsed incoming request.
type request struct {
	kind RequestKind
	file string
	body []byte
}

// parseRequest reads one request. The wire format is minimal HTTP/1.0:
// "GET /name HTTP/1.0\r\n\r\n" or "POST /name HTTP/1.0\r\n
// Content-Length: N\r\n\r\n<N bytes>".
func parseRequest(br *bufio.Reader, rt *vm.Runtime) (request, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return request{}, err
	}
	rt.Invoke(vm.MethodStringParse)
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 2 {
		return request{}, fmt.Errorf("malformed request line %q", line)
	}
	req := request{kind: RequestKind(fields[0]), file: strings.TrimPrefix(fields[1], "/")}
	contentLength := 0
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return request{}, err
		}
		h = strings.TrimSpace(h)
		if h == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(h), "content-length:"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 0 {
				return request{}, fmt.Errorf("bad content length %q", v)
			}
			contentLength = n
		}
	}
	if req.kind == KindPost && contentLength > 0 {
		req.body = make([]byte, contentLength)
		if _, err := io.ReadFull(br, req.body); err != nil {
			return request{}, err
		}
	}
	return req, nil
}

// doGet reads the requested file and sends it back. The recorded read
// time covers creating the FileStream, reading the data, and closing the
// stream (§4.1).
func (s *Server) doGet(ns *vm.NetworkStream, st fsim.Store, req request) {
	stream, openDur, err := vm.OpenFileStream(s.cfg.Runtime, st, req.file)
	if err != nil {
		writeResponse(ns, 404, fmt.Sprintf("not found: %s", req.file), 0)
		return
	}
	data, readDur, err := stream.ReadAll()
	closeDur, _ := stream.Close()
	if err != nil {
		writeResponse(ns, 500, fmt.Sprintf("read failed: %v", err), 0)
		return
	}
	total := openDur + readDur + closeDur
	if d := s.cfg.Shed.Deadline; d > 0 && total > d {
		s.record(RequestRecord{Kind: KindGet, File: req.file, Size: int64(len(data)), IOTime: total, Status: 503, Deadlined: true})
		writeResponse(ns, 503, "deadline exceeded", total)
		return
	}
	s.record(RequestRecord{Kind: KindGet, File: req.file, Size: int64(len(data)), IOTime: total, Status: 200})
	writeDataResponse(ns, data, total)
}

// doPost writes the request body to a new file named by the server's
// deterministic id generator (the paper uses a random number generator —
// fresh names mean no write synchronization is needed).
func (s *Server) doPost(ns *vm.NetworkStream, st fsim.Store, req request) {
	s.mu.Lock()
	s.nextID++
	name := fmt.Sprintf("post-%d", s.nextID)
	s.mu.Unlock()
	stream, createDur, err := vm.CreateFileStream(s.cfg.Runtime, st, name, nil)
	if err != nil {
		writeResponse(ns, 500, fmt.Sprintf("create failed: %v", err), 0)
		return
	}
	writer, ctorDur := vm.NewStreamWriter(s.cfg.Runtime, stream)
	_, writeDur, err := writer.WriteString(string(req.body))
	closeDur, _ := writer.Close()
	if err != nil {
		writeResponse(ns, 500, fmt.Sprintf("write failed: %v", err), 0)
		return
	}
	total := createDur + ctorDur + writeDur + closeDur
	if d := s.cfg.Shed.Deadline; d > 0 && total > d {
		s.record(RequestRecord{Kind: KindPost, File: name, Size: int64(len(req.body)), IOTime: total, Status: 503, Deadlined: true})
		writeResponse(ns, 503, "deadline exceeded", total)
		return
	}
	s.record(RequestRecord{Kind: KindPost, File: name, Size: int64(len(req.body)), IOTime: total, Status: 200})
	writeResponse(ns, 200, "stored "+name, total)
}

// writeDataResponse sends a 200 with a binary body and the measured I/O
// time in a header, so clients can collect server-side timings.
func writeDataResponse(w io.Writer, data []byte, ioTime time.Duration) {
	fmt.Fprintf(w, "HTTP/1.0 200 OK\r\nContent-Length: %d\r\nX-IO-Time-Ns: %d\r\n\r\n", len(data), ioTime.Nanoseconds())
	w.Write(data)
}

// writeResponse sends a status with a text body.
func writeResponse(w io.Writer, status int, msg string, ioTime time.Duration) {
	text := "OK"
	if status != 200 {
		text = "Error"
	}
	fmt.Fprintf(w, "HTTP/1.0 %d %s\r\nContent-Length: %d\r\nX-IO-Time-Ns: %d\r\n\r\n%s",
		status, text, len(msg), ioTime.Nanoseconds(), msg)
}

// readerFunc adapts a read function to io.Reader.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
