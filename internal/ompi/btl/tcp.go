package btl

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCP is the real-sockets BTL component: fragments move over loopback
// TCP connections with explicit framing. The paper's testbed ran the
// same MPI stack over TCP and InfiniBand; this component demonstrates
// that the PML (and hence the whole C/R machinery, including the
// wrapper protocol) is transport-agnostic, and gives the NetPIPE
// harness a fabric with kernel-realistic latencies.
type TCP struct{}

// Name implements mca.Component.
func (*TCP) Name() string { return "tcp" }

// Priority implements mca.Component.
func (*TCP) Priority() int { return 10 }

// NewFabric implements Component: build the full mesh up front.
func (*TCP) NewFabric(n int) (JobFabric, error) {
	return NewTCPFabric(n)
}

var _ Component = (*TCP)(nil)

// tcpFabric is a full mesh of loopback connections: one ordered
// connection per directed pair, created eagerly at construction. Wire
// format per fragment:
//
//	u8 kind | u8 colour | fixed header (src,dst int32; tag int64;
//	msgID u64; size int64; seq u64) | u32 payload length | payload bytes
type tcpFabric struct {
	n int

	mu       sync.Mutex
	ports    map[int]*tcpPort
	conns    [][]net.Conn // write ends: conns[src][dst], src writes
	readEnds [][]net.Conn // read ends: readEnds[src][dst], dst reads
	closed   bool
}

// NewTCPFabric builds the mesh for an n-rank job on loopback.
func NewTCPFabric(n int) (JobFabric, error) {
	if n <= 0 {
		return nil, fmt.Errorf("btl tcp: fabric needs n > 0, got %d", n)
	}
	f := &tcpFabric{n: n, ports: make(map[int]*tcpPort)}
	f.conns = make([][]net.Conn, n)
	for i := range f.conns {
		f.conns[i] = make([]net.Conn, n)
	}
	// One listener accepts all mesh connections; dialers identify
	// themselves with a (src,dst) preamble.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("btl tcp: listen: %w", err)
	}
	defer ln.Close()

	type accepted struct {
		src, dst int
		conn     net.Conn
		err      error
	}
	want := n * (n - 1)
	acceptedCh := make(chan accepted, want)
	go func() {
		for i := 0; i < want; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptedCh <- accepted{err: err}
				return
			}
			go func(conn net.Conn) {
				var hdr [8]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					acceptedCh <- accepted{err: err}
					return
				}
				src := int(binary.BigEndian.Uint32(hdr[0:4]))
				dst := int(binary.BigEndian.Uint32(hdr[4:8]))
				acceptedCh <- accepted{src: src, dst: dst, conn: conn}
			}(conn)
		}
	}()
	// Dial the mesh.
	dialErr := make(chan error, want)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			go func(src, dst int) {
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					dialErr <- err
					return
				}
				if tc, ok := conn.(*net.TCPConn); ok {
					_ = tc.SetNoDelay(true)
				}
				var hdr [8]byte
				binary.BigEndian.PutUint32(hdr[0:4], uint32(src))
				binary.BigEndian.PutUint32(hdr[4:8], uint32(dst))
				if _, err := conn.Write(hdr[:]); err != nil {
					dialErr <- err
					return
				}
				f.mu.Lock()
				f.conns[src][dst] = conn
				f.mu.Unlock()
				dialErr <- nil
			}(src, dst)
		}
	}
	for i := 0; i < want; i++ {
		if err := <-dialErr; err != nil {
			return nil, fmt.Errorf("btl tcp: mesh dial: %w", err)
		}
	}
	// Collect the accept side: these are the READ ends, indexed by the
	// announced (src,dst).
	readEnds := make([][]net.Conn, n)
	for i := range readEnds {
		readEnds[i] = make([]net.Conn, n)
	}
	for i := 0; i < want; i++ {
		a := <-acceptedCh
		if a.err != nil {
			return nil, fmt.Errorf("btl tcp: mesh accept: %w", a.err)
		}
		if a.src < 0 || a.src >= n || a.dst < 0 || a.dst >= n {
			return nil, fmt.Errorf("btl tcp: bad mesh preamble %d->%d", a.src, a.dst)
		}
		readEnds[a.src][a.dst] = a.conn
	}
	f.readEnds = readEnds
	return f, nil
}

// Attach implements JobFabric: create the port and start one reader
// goroutine per incoming connection, preserving per-pair FIFO.
func (f *tcpFabric) Attach(rank int) (Port, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrDetached
	}
	if rank < 0 || rank >= f.n {
		return nil, fmt.Errorf("btl tcp: rank %d out of range [0,%d)", rank, f.n)
	}
	if _, dup := f.ports[rank]; dup {
		return nil, fmt.Errorf("btl tcp: rank %d already attached", rank)
	}
	p := &tcpPort{fabric: f, rank: rank, seqOut: make(map[int]uint64)}
	p.inbox.init()
	f.ports[rank] = p
	for src := 0; src < f.n; src++ {
		if src == rank {
			continue
		}
		conn := f.readEnds[src][rank]
		if conn == nil {
			return nil, fmt.Errorf("btl tcp: missing mesh link %d->%d", src, rank)
		}
		p.readers.Add(1)
		go p.readLoop(conn)
	}
	return p, nil
}

// Detach implements JobFabric.
func (f *tcpFabric) Detach(rank int) {
	f.mu.Lock()
	p := f.ports[rank]
	delete(f.ports, rank)
	f.mu.Unlock()
	if p != nil {
		p.close()
	}
}

// Close implements JobFabric: closes every connection and port.
func (f *tcpFabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	ports := make([]*tcpPort, 0, len(f.ports))
	for _, p := range f.ports {
		ports = append(ports, p)
	}
	f.ports = make(map[int]*tcpPort)
	conns := f.conns
	readEnds := f.readEnds
	f.mu.Unlock()
	for _, p := range ports {
		p.close()
	}
	for _, row := range conns {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
	for _, row := range readEnds {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
}

func (f *tcpFabric) writeConn(src, dst int) (net.Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrDetached
	}
	c := f.conns[src][dst]
	if c == nil {
		return nil, fmt.Errorf("%w: rank %d", ErrNoPeer, dst)
	}
	return c, nil
}

// tcpPort is one rank's TCP attachment.
type tcpPort struct {
	inbox
	fabric  *tcpFabric
	rank    int
	seqOut  map[int]uint64 // inbox.mu
	readers sync.WaitGroup
	wmu     sync.Mutex // serializes writes per port (one writer goroutine model)
}

// Rank implements Port.
func (p *tcpPort) Rank() int { return p.rank }

// fragHeaderLen is the fixed wire header: kind(1) colour(1) src(4)
// dst(4) tag(8) msgID(8) size(8) seq(8) paylen(4).
const fragHeaderLen = 1 + 1 + 4 + 4 + 8 + 8 + 8 + 8 + 4

// Send implements Port: frame and write on the (src,dst) connection.
func (p *tcpPort) Send(fr Frag) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrDetached
	}
	fr.Src = p.rank
	fr.Seq = p.seqOut[fr.Dst]
	p.seqOut[fr.Dst]++
	if fr.Dst == p.rank {
		// Self-sends loop back locally, like the sm fabric (MPI permits
		// a rank to message itself).
		p.mu.Unlock()
		return p.push(fr)
	}
	p.mu.Unlock()
	conn, err := p.fabric.writeConn(p.rank, fr.Dst)
	if err != nil {
		return err
	}
	buf := make([]byte, fragHeaderLen+len(fr.Payload))
	buf[0] = byte(fr.Kind)
	buf[1] = fr.Colour
	binary.BigEndian.PutUint32(buf[2:], uint32(fr.Src))
	binary.BigEndian.PutUint32(buf[6:], uint32(fr.Dst))
	binary.BigEndian.PutUint64(buf[10:], uint64(int64(fr.Tag)))
	binary.BigEndian.PutUint64(buf[18:], fr.MsgID)
	binary.BigEndian.PutUint64(buf[26:], uint64(int64(fr.Size)))
	binary.BigEndian.PutUint64(buf[34:], fr.Seq)
	binary.BigEndian.PutUint32(buf[42:], uint32(len(fr.Payload)))
	copy(buf[fragHeaderLen:], fr.Payload)
	p.wmu.Lock()
	_, err = conn.Write(buf)
	p.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("btl tcp: send to %d: %w", fr.Dst, err)
	}
	return nil
}

// readLoop decodes fragments from one incoming connection into the
// port's queue. Per-connection ordering gives per-pair FIFO.
func (p *tcpPort) readLoop(conn net.Conn) {
	defer p.readers.Done()
	hdr := make([]byte, fragHeaderLen)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return // closed
		}
		fr := Frag{
			Kind:   Kind(hdr[0]),
			Colour: hdr[1],
			Src:    int(int32(binary.BigEndian.Uint32(hdr[2:]))),
			Dst:    int(int32(binary.BigEndian.Uint32(hdr[6:]))),
			Tag:    int(int64(binary.BigEndian.Uint64(hdr[10:]))),
			MsgID:  binary.BigEndian.Uint64(hdr[18:]),
			Size:   int(int64(binary.BigEndian.Uint64(hdr[26:]))),
			Seq:    binary.BigEndian.Uint64(hdr[34:]),
		}
		plen := binary.BigEndian.Uint32(hdr[42:])
		if plen > 0 {
			fr.Payload = make([]byte, plen)
			if _, err := io.ReadFull(conn, fr.Payload); err != nil {
				return
			}
		}
		if p.push(fr) != nil {
			return
		}
	}
}

var _ Port = (*tcpPort)(nil)
