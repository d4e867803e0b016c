package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// lineEncoder renders CellResults as results-stream lines. A line is
// byte-identical to json.NewEncoder(w).Encode(&r), but a counter map
// that arrives already encoded (a cell the result store's view
// answered, CellResult.countersJSON) is copied instead of re-encoded:
// encoding/json renders the fields before the map, and the encoded map
// and the error are spliced after them. The two fields are CellResult's
// last and both omitempty, which is what makes the splice exact;
// FuzzStreamLine pins the identity.
type lineEncoder struct {
	buf  bytes.Buffer
	enc  *json.Encoder // writes to buf
	head CellResult    // the line being encoded, without counters and error
}

func newLineEncoder() *lineEncoder {
	le := &lineEncoder{}
	le.enc = json.NewEncoder(&le.buf)
	return le
}

// line returns r's line, trailing newline included. The bytes are valid
// until the next call.
func (le *lineEncoder) line(r *CellResult) ([]byte, error) {
	le.buf.Reset()
	le.head = *r
	le.head.Counters, le.head.countersJSON, le.head.Error = nil, nil, ""
	if err := le.enc.Encode(&le.head); err != nil {
		return nil, err
	}
	le.buf.Truncate(le.buf.Len() - len("}\n"))
	if len(r.Counters) > 0 {
		le.buf.WriteString(`,"counters":`)
		if r.countersJSON != nil {
			le.buf.Write(r.countersJSON)
		} else if err := le.encodeValue(r.Counters); err != nil {
			return nil, err
		}
	}
	if r.Error != "" {
		le.buf.WriteString(`,"error":`)
		if err := le.encodeValue(r.Error); err != nil {
			return nil, err
		}
	}
	le.buf.WriteString("}\n")
	return le.buf.Bytes(), nil
}

// encodeValue appends v's encoding without the encoder's newline.
func (le *lineEncoder) encodeValue(v any) error {
	if err := le.enc.Encode(v); err != nil {
		return err
	}
	le.buf.Truncate(le.buf.Len() - 1)
	return nil
}

// ErrKeyMismatch reports a result answered under another content
// address than the one its cell was routed by: the worker derives keys
// differently (a different simulator version), so its result is not
// this cell's.
var ErrKeyMismatch = errors.New("result cache_key differs from the routed key")

// maxResultLine bounds the bytes DecodeResult reads. A line carries one
// cell's full counter map, tens of kilobytes.
const maxResultLine = 4 << 20

// DecodeResult reads the first results-stream line from r, at most
// maxResultLine bytes of it. key is the content address the reader
// routed the cell by (CellKey); a Valid result stored under any other
// key is refused with ErrKeyMismatch.
func DecodeResult(r io.Reader, key string) (CellResult, error) {
	var res CellResult
	if err := json.NewDecoder(io.LimitReader(r, maxResultLine)).Decode(&res); err != nil {
		return CellResult{}, err
	}
	if res.Valid && res.CacheKey != key {
		return CellResult{}, fmt.Errorf("%w: answered %q, routed by %q", ErrKeyMismatch, res.CacheKey, key)
	}
	return res, nil
}
