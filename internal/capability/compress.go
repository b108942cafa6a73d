package capability

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"slices"
	"sync"

	"openhpcxx/internal/bufpool"
	"openhpcxx/internal/errs"
	"openhpcxx/internal/netsim"
	"openhpcxx/internal/wire"
	"openhpcxx/internal/xdr"
)

// KindCompress names the data-compression capability — one of the
// paper's motivating remote-access attributes ("the requirements or
// attributes of remote access, such as data compression ...").
const KindCompress = "compress"

// Compress deflates bodies larger than a threshold. If compression does
// not shrink the body (already-compressed or tiny payloads) it passes
// the original through and says so in the envelope, so the cost is
// bounded by one compression attempt.
type Compress struct {
	level   int
	minSize uint32
	scope   Scope

	deflaters, inflaters sync.Pool // of *deflater, of *inflater
}

// NewCompress builds a compression capability. level is a flate level
// (1..9; 0 picks flate.DefaultCompression); bodies below minSize bytes
// pass through.
func NewCompress(level int, minSize uint32, scope Scope) (*Compress, error) {
	if level == 0 {
		level = flate.DefaultCompression
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, errs.Newf(errs.Config, "capability: bad compression level %d", level)
	}
	return &Compress{level: level, minSize: minSize, scope: scope}, nil
}

// MustNewCompress is NewCompress, panicking on error (fixture use).
func MustNewCompress(level int, minSize uint32, scope Scope) *Compress {
	c, err := NewCompress(level, minSize, scope)
	if err != nil {
		panic(err)
	}
	return c
}

// Kind implements Capability.
func (*Compress) Kind() string { return KindCompress }

// Applicable implements Capability.
func (c *Compress) Applicable(client, server netsim.Locality) bool {
	return c.scope.Applies(client, server)
}

type compressConfig struct {
	Level   int32
	MinSize uint32
	Scope   Scope
}

func (c *compressConfig) MarshalXDR(e *xdr.Encoder) error {
	e.PutInt32(c.Level)
	e.PutUint32(c.MinSize)
	e.PutUint32(uint32(c.Scope))
	return nil
}

func (c *compressConfig) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if c.Level, err = d.Int32(); err != nil {
		return err
	}
	if c.MinSize, err = d.Uint32(); err != nil {
		return err
	}
	s, err := d.Uint32()
	c.Scope = Scope(s)
	return err
}

// Config implements Capability.
func (c *Compress) Config() ([]byte, error) {
	return xdr.Marshal(&compressConfig{Level: int32(c.level), MinSize: c.minSize, Scope: c.scope})
}

// Envelope flags.
const (
	compressIdentity byte = 0
	compressDeflate  byte = 1
)

// deflater and inflater are the codec's reusable halves: a flate.Writer
// is hundreds of kilobytes of tables and a reader tens, so an instance
// pools them and Resets one per message instead of building one.
type deflater struct {
	w   *flate.Writer
	out bytes.Buffer
}

type inflater struct {
	r     io.ReadCloser // also a flate.Resetter
	src   bytes.Reader
	extra [1]byte // read target of the end-of-stream probe
}

// Process deflates the body when worthwhile, into a buffer lent by
// bufpool; the envelope is the frame's (see Capability).
func (c *Compress) Process(f *Frame, body []byte) ([]byte, []byte, error) {
	if uint32(len(body)) < c.minSize {
		return body, f.envelope(1), nil // zeroed: compressIdentity
	}
	d, _ := c.deflaters.Get().(*deflater)
	if d == nil {
		d = new(deflater)
		d.w, _ = flate.NewWriter(&d.out, c.level) // NewCompress checked the level
	}
	defer c.deflaters.Put(d)
	d.out.Reset()
	d.w.Reset(&d.out)
	if _, err := d.w.Write(body); err != nil {
		return nil, nil, err
	}
	if err := d.w.Close(); err != nil {
		return nil, nil, err
	}
	n := d.out.Len()
	if n >= len(body) {
		return body, f.envelope(1), nil
	}
	env := f.envelope(5)
	env[0] = compressDeflate
	binary.BigEndian.PutUint32(env[1:], uint32(len(body)))
	return append(bufpool.Get(n)[:0], d.out.Bytes()...), env, nil
}

// Unprocess inflates when the envelope says the body was deflated.
func (c *Compress) Unprocess(f *Frame, envelope, body []byte) ([]byte, error) {
	if len(envelope) == 0 {
		return nil, wire.Faultf(wire.FaultCapability, "compress envelope empty")
	}
	switch envelope[0] {
	case compressIdentity:
		return body, nil
	case compressDeflate:
		if len(envelope) != 5 {
			return nil, wire.Faultf(wire.FaultCapability, "compress envelope has %d bytes", len(envelope))
		}
		origLen := int(binary.BigEndian.Uint32(envelope[1:]))
		if origLen > wire.MaxFrame {
			return nil, wire.Faultf(wire.FaultCapability, "compress envelope claims %d bytes", origLen)
		}
		in, _ := c.inflaters.Get().(*inflater)
		if in == nil {
			in = new(inflater)
			in.r = flate.NewReader(&in.src)
		}
		defer c.inflaters.Put(in)
		defer in.src.Reset(nil) // runs first: a pooled reader must not pin the frame
		in.src.Reset(body)
		_ = in.r.(flate.Resetter).Reset(&in.src, nil) // flate's Reset cannot fail
		// A length the peer merely claims pins at most 1 MiB: the buffer
		// grows with the bytes that actually inflate.
		out := make([]byte, 0, min(origLen, 1<<20))
		for len(out) < origLen {
			out = slices.Grow(out, 1) // a no-op while there is room
			n, err := io.ReadFull(in.r, out[len(out):min(cap(out), origLen)])
			out = out[:len(out)+n]
			if err != nil {
				return nil, wire.Faultf(wire.FaultCapability, "inflate: %v", err)
			}
		}
		// The stream must end exactly at origLen.
		if n, _ := in.r.Read(in.extra[:]); n != 0 {
			return nil, wire.Faultf(wire.FaultCapability, "inflate: trailing data")
		}
		return out, nil
	}
	return nil, wire.Faultf(wire.FaultCapability, "compress envelope flag %d", envelope[0])
}

func init() {
	RegisterKind(KindCompress, func(config []byte) (Capability, error) {
		c := new(compressConfig)
		if err := xdr.Unmarshal(config, c); err != nil {
			return nil, errs.Wrap(errs.Codec, err, "capability: compress config")
		}
		return NewCompress(int(c.Level), c.MinSize, c.Scope)
	})
}
