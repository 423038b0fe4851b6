package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"mpq/internal/plan"
	"mpq/internal/selection"
	"mpq/internal/serve"
)

// Pick answers are the serving hot path, so /pick and /pickbatch (and
// their stdin-protocol lines) are appended byte by byte into a pooled
// buffer instead of going through encoding/json. The bytes are exactly
// what json.Encoder writes for the protocol's pick response objects
// ({"metrics","choices","epsilon","generation","final"}, trailing
// newline included): strings are quoted by json.Marshal itself, and
// floats are formatted the way encoding/json formats a float64. Each
// distinct plan's quoted name is rendered once per response and copied
// from the buffer wherever the plan is chosen again. A cost that JSON
// cannot represent (NaN, ±Inf) fails the encoding before anything is
// written; the transports answer it as a 500.

// maxPooledBuf caps the buffer a pickEncoder may keep when it returns
// to the pool, so one huge batch does not pin its memory forever.
const maxPooledBuf = 1 << 20

// pickEncoder accumulates one encoded pick answer.
type pickEncoder struct {
	buf []byte
	// names maps each plan already written to this response to the
	// span of buf holding its quoted name.
	names map[*plan.Node][2]int
	// name is scratch space for rendering a plan name.
	name []byte
}

var encoderPool = sync.Pool{New: func() any {
	return &pickEncoder{names: make(map[*plan.Node][2]int)}
}}

func newPickEncoder() *pickEncoder { return encoderPool.Get().(*pickEncoder) }

// free returns e to the pool; nothing may reference e.buf afterwards.
func (e *pickEncoder) free() {
	if cap(e.buf) > maxPooledBuf {
		return
	}
	e.buf = e.buf[:0]
	clear(e.names)
	encoderPool.Put(e)
}

// pick encodes a /pick answer into e.buf.
func (e *pickEncoder) pick(r serve.PickResult) error {
	e.buf = append(e.buf, `{"metrics":`...)
	e.stringList(r.Metrics)
	e.buf = append(e.buf, `,"choices":`...)
	if err := e.choices(r.Choices); err != nil {
		return err
	}
	return e.generation(r.Epsilon, r.Generation, r.Final)
}

// pickBatch encodes a /pickbatch answer into e.buf.
func (e *pickEncoder) pickBatch(r serve.PickBatchResult) error {
	e.buf = append(e.buf, `{"metrics":`...)
	e.stringList(r.Metrics)
	e.buf = append(e.buf, `,"choices":[`...)
	for i, cs := range r.Choices {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		if err := e.choices(cs); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, ']')
	return e.generation(r.Epsilon, r.Generation, r.Final)
}

// generation closes an answer with the fields naming the generation
// that served it.
func (e *pickEncoder) generation(epsilon float64, generation int, final bool) error {
	e.buf = append(e.buf, `,"epsilon":`...)
	var err error
	if e.buf, err = appendFloat(e.buf, epsilon); err != nil {
		return err
	}
	e.buf = append(e.buf, `,"generation":`...)
	e.buf = strconv.AppendInt(e.buf, int64(generation), 10)
	e.buf = append(e.buf, `,"final":`...)
	e.buf = strconv.AppendBool(e.buf, final)
	e.buf = append(e.buf, "}\n"...)
	return nil
}

// stringList encodes a string slice (nil as null, like encoding/json).
func (e *pickEncoder) stringList(ss []string) {
	if ss == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, s := range ss {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendQuoted(e.buf, s)
	}
	e.buf = append(e.buf, ']')
}

// choices encodes one point's choices; no choices is an empty array.
func (e *pickEncoder) choices(cs []selection.Choice) error {
	e.buf = append(e.buf, '[')
	for i, c := range cs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `{"plan":`...)
		e.planName(c.Plan)
		e.buf = append(e.buf, `,"cost":`...)
		if c.Cost == nil {
			e.buf = append(e.buf, "null"...)
		} else {
			e.buf = append(e.buf, '[')
			for j, f := range c.Cost {
				if j > 0 {
					e.buf = append(e.buf, ',')
				}
				var err error
				if e.buf, err = appendFloat(e.buf, f); err != nil {
					return err
				}
			}
			e.buf = append(e.buf, ']')
		}
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, ']')
	return nil
}

// planName appends n's quoted name, rendering it only the first time
// the response mentions n.
func (e *pickEncoder) planName(n *plan.Node) {
	if sp, ok := e.names[n]; ok {
		e.buf = append(e.buf, e.buf[sp[0]:sp[1]]...)
		return
	}
	e.name = n.AppendString(e.name[:0])
	start := len(e.buf)
	e.buf = appendQuoted(e.buf, string(e.name))
	e.names[n] = [2]int{start, len(e.buf)}
}

// appendQuoted appends s as a JSON string, escaped by json.Marshal.
func appendQuoted(dst []byte, s string) []byte {
	q, err := json.Marshal(s)
	if err != nil {
		panic(err) // a string always marshals
	}
	return append(dst, q...)
}

// appendFloat appends f formatted as encoding/json formats a float64:
// the shortest representation, in exponent form outside [1e-6, 1e21)
// with a two-digit negative exponent shortened (1e-07 → 1e-7). NaN and
// ±Inf have no JSON form and fail with the error encoding/json reports.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("encoding pick response: %w",
			&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)})
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// writeBody sends an encoded answer as a 200 response in one Write.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
