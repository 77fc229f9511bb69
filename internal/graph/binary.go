package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary graph format: a compact snapshot for fast reloads (the text
// formats exist for interchange; this one for storage). Layout:
//
//	magic "GMG1" | uvarint |V| | per vertex: id, label (zigzag varints),
//	attr count + attrs, adjacency as delta varints
//
// IDs are external IDs. Only frozen graphs can be written; loading yields a
// frozen graph, and a file whose adjacency is not symmetric, or names a
// vertex the file does not hold, does not load.

var binaryMagic = [4]byte{'G', 'M', 'G', '1'}

// WriteBinary writes the graph in the binary snapshot format.
func WriteBinary(w io.Writer, g *Graph) error {
	if !g.Frozen() {
		return fmt.Errorf("graph: WriteBinary requires a frozen graph")
	}
	buf := make([]byte, 0, 64)
	if _, err := w.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	buf = binary.AppendUvarint(buf, uint64(g.NumVertices()))
	var werr error
	flush := func() {
		if werr == nil && len(buf) > 0 {
			_, werr = w.Write(buf)
			buf = buf[:0]
		}
	}
	g.ForEach(func(v *Vertex) bool {
		buf = binary.AppendVarint(buf, int64(g.External(v.ID)))
		buf = binary.AppendVarint(buf, int64(v.Label))
		buf = binary.AppendUvarint(buf, uint64(len(v.Attrs)))
		for _, a := range v.Attrs {
			buf = binary.AppendVarint(buf, int64(a))
		}
		buf = binary.AppendUvarint(buf, uint64(len(v.Adj)))
		var prev int64
		for _, n := range v.Adj {
			x := int64(g.External(n))
			buf = binary.AppendVarint(buf, x-prev)
			prev = x
		}
		if len(buf) >= 1<<16 {
			flush()
		}
		return werr == nil
	})
	flush()
	if werr != nil {
		return fmt.Errorf("graph: %w", werr)
	}
	return nil
}

// ReadBinary loads a graph written by WriteBinary. It trusts no count the
// file declares: vertices, attributes and neighbours are entered as their
// bytes arrive, so a short file fails on EOF having allocated no more than
// it held.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := &byteReader{r: r}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("graph: vertex count: %w", err)
	}
	g := New(0)
	for i := uint64(0); i < n; i++ {
		id, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: vertex %d id: %w", i, err)
		}
		label, err := readInt32(br)
		if err != nil {
			return nil, fmt.Errorf("graph: vertex %d label: %w", i, err)
		}
		v := g.AddVertex(VertexID(id))
		v.Label = label
		na, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: vertex %d attrs: %w", i, err)
		}
		for j := uint64(0); j < na; j++ {
			a, err := readInt32(br)
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d attr %d: %w", i, j, err)
			}
			v.Attrs = append(v.Attrs, a)
		}
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: vertex %d degree: %w", i, err)
		}
		var prev int64
		for j := uint64(0); j < deg; j++ {
			d, err := binary.ReadVarint(br)
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d adj %d: %w", i, j, err)
			}
			prev += d
			v.Adj = append(v.Adj, VertexID(prev))
		}
	}
	if err := g.freeze(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readInt32 reads a zigzag varint that must fit an int32: a label or an
// attribute.
func readInt32(br *byteReader) (int32, error) {
	x, err := binary.ReadVarint(br)
	if err == nil && x != int64(int32(x)) {
		err = fmt.Errorf("%d is outside int32", x)
	}
	return int32(x), err
}

// SaveBinaryFile / LoadBinaryFile are file-path conveniences.
func SaveBinaryFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBinaryFile reads a binary snapshot from a file.
func LoadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	return ReadBinary(f)
}

// byteReader adapts an io.Reader for binary.ReadUvarint with buffering.
type byteReader struct {
	r   io.Reader
	buf [4096]byte
	pos int
	end int
}

func (b *byteReader) ReadByte() (byte, error) {
	if b.pos >= b.end {
		n, err := b.r.Read(b.buf[:])
		if n == 0 {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		b.pos, b.end = 0, n
	}
	c := b.buf[b.pos]
	b.pos++
	return c, nil
}

func (b *byteReader) Read(p []byte) (int, error) {
	// Serve from the buffer first.
	if b.pos < b.end {
		n := copy(p, b.buf[b.pos:b.end])
		b.pos += n
		return n, nil
	}
	return b.r.Read(p)
}
