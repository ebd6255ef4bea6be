package gpusim

import (
	"encoding/binary"
	"io"
)

// recMagic heads the serialized recording stream that the golden and
// determinism tests hash and compare byte for byte. Recordings are never
// written to disk; the decoded store (internal/trace) is the one trace
// file format.
var recMagic = []byte("st2rec\x02")

// WriteTo serializes the recording (magic, op count, lane count, segment
// count, then length-prefixed segments). The encoding is deterministic:
// equal recordings produce byte-equal output.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	var hdr []byte
	hdr = append(hdr, recMagic...)
	hdr = binary.AppendUvarint(hdr, r.ops)
	hdr = binary.AppendUvarint(hdr, r.lanes)
	hdr = binary.AppendUvarint(hdr, uint64(len(r.segs)))
	n, err := w.Write(hdr)
	total := int64(n)
	if err != nil {
		return total, err
	}
	for _, seg := range r.segs {
		var lp []byte
		lp = binary.AppendUvarint(lp, uint64(len(seg)))
		n, err = w.Write(lp)
		total += int64(n)
		if err != nil {
			return total, err
		}
		n, err = w.Write(seg)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
