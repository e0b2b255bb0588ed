package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The localize wire has one fixed schema and one hand-written codec,
// without reflection: DecodeLocalize accepts exactly what json.Decoder
// with DisallowUnknownFields accepts in one Decode into LocalizeRequest,
// and yields the same value; AppendTargetResultV2 writes the bytes
// json.Encoder writes. FuzzDecodeV2 and FuzzAppendTargetResultV2 hold
// both to encoding/json.

// LocalizeRequest is the body of the localize routes, at a node and at
// the front door: the single route reads Target, the batch route
// Targets, and both Options.
type LocalizeRequest struct {
	Target  string       `json:"target"`
	Targets []string     `json:"targets"`
	Options *WireOptions `json:"options"`
}

// wireBufs is a free list of the buffers bodies are read into and result
// lines are written from: 64 covers the requests a node has in flight at
// once under load, and a request that finds it empty allocates.
var wireBufs = make(chan []byte, 64)

func getWireBuf() []byte {
	select {
	case b := <-wireBufs:
		return b[:0]
	default:
		return make([]byte, 0, 512)
	}
}

func putWireBuf(b []byte) {
	if cap(b) <= 64<<10 {
		select {
		case wireBufs <- b:
		default:
		}
	}
}

// DecodeLocalize reads one localize body of at most maxRequestBody bytes,
// within bodyReadTimeout, and reports whether it could; on failure it has
// already answered — 413 for a body over the cap, 400 for anything else.
func DecodeLocalize(w http.ResponseWriter, r *http.Request) (LocalizeRequest, bool) {
	var req LocalizeRequest
	buf := getWireBuf()
	err := readBody(w, r, maxRequestBody, func(body io.Reader) error {
		b := bytes.NewBuffer(buf)
		_, rerr := b.ReadFrom(body) // nil at EOF
		buf = b.Bytes()
		return decodeLocalize(buf, rerr, &req)
	})
	putWireBuf(buf)
	if err != nil {
		writeBodyError(w, err, "bad request body")
	}
	return req, err == nil
}

// decodeLocalize decodes data, the body as far as it was read, into req;
// rerr is what ended the read (nil at EOF). The verdict is
// json.Decoder's: a syntax error in data; else, for a value data ends
// inside of, the read's error; else the first type or unknown-field
// error; else the read's error, which draining the body would meet.
func decodeLocalize(data []byte, rerr error, req *LocalizeRequest) error {
	d := wireDecoder{data: data}
	err := d.value(req)
	if err == nil && rerr != nil && d.pos == len(data) {
		if top := bytes.TrimLeft(data, " \t\r\n"); top[0] != '{' && top[0] != '[' {
			err = errTruncated // a top-level scalar ends at the byte after it, or at EOF
		}
	}
	switch {
	case err == errTruncated && rerr != nil:
		return rerr
	case err == errTruncated && len(bytes.TrimLeft(data, " \t\r\n")) == 0:
		return io.EOF
	case err == errTruncated:
		return io.ErrUnexpectedEOF
	case err != nil:
		return err
	case d.sem != nil:
		return d.sem
	}
	return rerr
}

// errTruncated marks a value that data ends inside of.
var errTruncated = errors.New("truncated")

// wireDecoder is one pass over a body. A syntax error or the end of data
// stops it; a type or unknown-field error is kept in sem and the pass
// goes on, because encoding/json checks a value's syntax before it
// decodes it, so a later syntax error wins.
type wireDecoder struct {
	data  []byte
	pos   int
	depth int // open objects and arrays, at most 10000 as in encoding/json
	sem   error
	// weight is what a weights member decodes into; a local variable
	// there would escape to the heap through value's dst.
	weight float64
}

func (d *wireDecoder) ws() {
	for ; d.pos < len(d.data); d.pos++ {
		if c := d.data[d.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
	}
}

func (d *wireDecoder) syntax() error {
	return fmt.Errorf("invalid character %q at offset %d", d.data[d.pos], d.pos)
}

func (d *wireDecoder) mismatch() {
	if d.sem == nil {
		d.sem = fmt.Errorf("json: the value at offset %d has the wrong type for its field", d.pos)
	}
}

// value decodes the value at d.pos into dst, one of the field pointers
// fieldOf hands out (or the request), or only scans it when dst is nil.
// null leaves a scalar as it is and clears a slice, map or pointer.
func (d *wireDecoder) value(dst any) error {
	if d.ws(); d.pos == len(d.data) {
		return errTruncated
	}
	switch c := d.data[d.pos]; c {
	case '{':
		return d.object(dst)
	case '[':
		switch p := dst.(type) {
		case *[]string:
			return arrayInto(d, p)
		case *[]WireHint:
			return arrayInto(d, p)
		case nil:
		default:
			d.mismatch()
		}
		return d.array(func() error { return d.value(nil) })
	case '"':
		raw, err := d.str()
		if p, ok := dst.(*string); ok && err == nil {
			*p = string(unquote(raw))
		} else if dst != nil {
			d.mismatch()
		}
		return err
	case 'n':
		switch p := dst.(type) {
		case *[]string:
			*p = nil
		case *[]WireHint:
			*p = nil
		case *map[string]float64:
			*p = nil
		case **WireOptions:
			*p = nil
		}
		return d.literal("null")
	case 't', 'f':
		word := "false"
		if c == 't' {
			word = "true"
		}
		if p, ok := dst.(*bool); ok {
			*p = c == 't'
		} else if dst != nil {
			d.mismatch()
		}
		return d.literal(word)
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	switch p := dst.(type) {
	case *float64:
		if f, err := strconv.ParseFloat(string(num), 64); err == nil {
			*p = f
		} else if d.sem == nil {
			d.sem = fmt.Errorf("json: cannot unmarshal number %s into float64", num)
		}
	case *int:
		if n, err := strconv.ParseInt(string(num), 10, 64); err == nil {
			*p = int(n)
		} else if d.sem == nil {
			d.sem = fmt.Errorf("json: cannot unmarshal number %s into int", num)
		}
	case nil:
	default:
		d.mismatch()
	}
	return nil
}

// object decodes the object at d.pos into dst member by member: a known
// key decodes into its field, over what an earlier duplicate of the key
// left there, and an unknown key is an error (DisallowUnknownFields).
func (d *wireDecoder) object(dst any) error {
	switch p := dst.(type) {
	case **WireOptions:
		if *p == nil {
			*p = new(WireOptions)
		}
		dst = *p
	case *map[string]float64:
		if *p == nil {
			*p = map[string]float64{}
		}
	case *LocalizeRequest, *WireHint, nil:
	default:
		d.mismatch()
		dst = nil
	}
	if err := d.open(); err != nil {
		return err
	}
	for i := 0; ; i++ {
		if more, err := d.next('}', i); err != nil || !more {
			return err
		}
		if d.data[d.pos] != '"' {
			return d.syntax()
		}
		raw, err := d.str()
		if err != nil {
			return err
		}
		key := unquote(raw)
		if d.ws(); d.pos == len(d.data) {
			return errTruncated
		}
		if d.data[d.pos] != ':' {
			return d.syntax()
		}
		d.pos++
		if m, ok := dst.(*map[string]float64); ok {
			d.weight = 0 // a null weight is stored as 0
			err = d.value(&d.weight)
			(*m)[string(key)] = d.weight
		} else {
			field := fieldOf(dst, key)
			if field == nil && dst != nil && d.sem == nil {
				d.sem = fmt.Errorf("json: unknown field %q", key)
			}
			err = d.value(field)
		}
		if err != nil {
			return err
		}
	}
}

// fieldOf is the schema: the field of dst that key names, matched as
// encoding/json matches names — exactly, or else under Unicode case
// folding — or nil.
func fieldOf(dst any, key []byte) any {
	is := func(name string) bool { return string(key) == name || strings.EqualFold(string(key), name) }
	switch p := dst.(type) {
	case *LocalizeRequest:
		switch {
		case is("target"):
			return &p.Target
		case is("targets"):
			return &p.Targets
		case is("options"):
			return &p.Options
		}
	case *WireOptions:
		switch {
		case is("disable"):
			return &p.Disable
		case is("weights"):
			return &p.Weights
		case is("min_area_km2"):
			return &p.MinAreaKm2
		case is("fine_cell_km"):
			return &p.FineCellKm
		case is("neg_height_percentile"):
			return &p.NegHeightPercentile
		case is("min_landmarks"):
			return &p.MinLandmarks
		case is("explain"):
			return &p.Explain
		case is("hints"):
			return &p.Hints
		}
	case *WireHint:
		switch {
		case is("lat"):
			return &p.Lat
		case is("lon"):
			return &p.Lon
		case is("radius_km"):
			return &p.RadiusKm
		case is("weight"):
			return &p.Weight
		case is("label"):
			return &p.Label
		}
	}
	return nil
}

// arrayInto decodes an array into *dst as encoding/json does: elements
// decode in place over what the slice holds, up to its capacity, and an
// empty array is an empty, non-nil slice.
func arrayInto[T any](d *wireDecoder, dst *[]T) error {
	s, i := *dst, 0
	err := d.array(func() error {
		if i == len(s) && i < cap(s) {
			s = s[:i+1]
		} else if i == len(s) {
			s = append(s, *new(T))
		}
		i++
		return d.value(&s[i-1])
	})
	if *dst = s[:i]; i == 0 {
		*dst = []T{}
	}
	return err
}

// array scans the array at d.pos, calling elem at each element.
func (d *wireDecoder) array(elem func() error) error {
	if err := d.open(); err != nil {
		return err
	}
	for i := 0; ; i++ {
		if more, err := d.next(']', i); err != nil || !more {
			return err
		}
		if err := elem(); err != nil {
			return err
		}
	}
}

// open steps into the object or array at d.pos.
func (d *wireDecoder) open() error {
	if d.depth++; d.depth > 10000 {
		return errors.New("exceeded max depth")
	}
	d.pos++
	return nil
}

// next steps to member or element i of the object or array d.pos is in,
// past the comma before it, and reports whether there is one; false
// means d.pos is past the closing byte end.
func (d *wireDecoder) next(end byte, i int) (bool, error) {
	if d.ws(); d.pos == len(d.data) {
		return false, errTruncated
	}
	switch c := d.data[d.pos]; {
	case c == end:
		d.pos++
		d.depth--
		return false, nil
	case i == 0:
		return true, nil
	case c != ',':
		return false, d.syntax()
	}
	d.pos++
	if d.ws(); d.pos == len(d.data) {
		return false, errTruncated
	}
	return true, nil
}

// str scans the string at d.pos and returns its raw contents.
func (d *wireDecoder) str() ([]byte, error) {
	start := d.pos + 1
	for d.pos = start; d.pos < len(d.data); d.pos++ {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], nil
		case c < ' ':
			return nil, d.syntax()
		case c != '\\':
			continue
		}
		if d.pos++; d.pos == len(d.data) {
			return nil, errTruncated
		}
		switch d.data[d.pos] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			continue
		case 'u':
			for k := 0; k < 4; k++ {
				if d.pos++; d.pos == len(d.data) {
					return nil, errTruncated
				}
				if strings.IndexByte("0123456789abcdefABCDEF", d.data[d.pos]) < 0 {
					return nil, d.syntax()
				}
			}
			continue
		}
		return nil, d.syntax()
	}
	return nil, errTruncated
}

// unquote resolves the escapes of a scanned string and coerces it to
// UTF-8 as encoding/json does: an invalid byte, and a \u surrogate that
// does not pair, becomes U+FFFD.
func unquote(s []byte) []byte {
	if bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		return s
	}
	u4 := func(s []byte) rune {
		n, _ := strconv.ParseUint(string(s[2:6]), 16, 32)
		return rune(n)
	}
	b := make([]byte, 0, len(s)+utf8.UTFMax)
	for r := 0; r < len(s); {
		switch {
		case s[r] == '\\' && s[r+1] == 'u':
			rr := u4(s[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				next := rune(-1)
				if r+1 < len(s) && s[r] == '\\' && s[r+1] == 'u' {
					next = u4(s[r:])
				}
				if rr = utf16.DecodeRune(rr, next); rr != utf8.RuneError {
					r += 6
				}
			}
			b = utf8.AppendRune(b, rr)
		case s[r] == '\\':
			if i := strings.IndexByte("bfnrt", s[r+1]); i >= 0 {
				b = append(b, "\b\f\n\r\t"[i])
			} else {
				b = append(b, s[r+1])
			}
			r += 2
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// number scans the number at d.pos.
func (d *wireDecoder) number() ([]byte, error) {
	start := d.pos
	if d.data[d.pos] == '-' {
		d.pos++
	}
	if d.pos == len(d.data) {
		return nil, errTruncated
	}
	var err error
	switch c := d.data[d.pos]; {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		err = d.digits(0)
	default:
		return nil, d.syntax()
	}
	if err == nil && d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		err = d.digits(1)
	}
	if err == nil && d.pos < len(d.data) && d.data[d.pos]|0x20 == 'e' {
		if d.pos++; d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		err = d.digits(1)
	}
	return d.data[start:d.pos], err
}

// digits scans a run of at least min digits.
func (d *wireDecoder) digits(min int) error {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos]-'0' < 10 {
		d.pos++
	}
	switch {
	case d.pos-start >= min:
		return nil
	case d.pos == len(d.data):
		return errTruncated
	}
	return d.syntax()
}

// literal scans word (true, false or null) at d.pos.
func (d *wireDecoder) literal(word string) error {
	for k := 0; k < len(word); k, d.pos = k+1, d.pos+1 {
		if d.pos == len(d.data) {
			return errTruncated
		}
		if d.data[d.pos] != word[k] {
			return d.syntax()
		}
	}
	return nil
}

// jsonContentType is the Content-Type header value of a result line,
// shared so that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// WriteResultV2 answers 200 with one result line.
func WriteResultV2(w http.ResponseWriter, tr *TargetResultV2) {
	b, err := AppendTargetResultV2(getWireBuf(), tr)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if err == nil {
		_, _ = w.Write(b)
	}
	putWireBuf(b)
}

// AppendTargetResultV2 appends tr as the line json.Encoder writes for it,
// newline included. A NaN or an infinity is an error, with nothing
// appended.
func AppendTargetResultV2(b []byte, tr *TargetResultV2) ([]byte, error) {
	n := len(b)
	var err error
	num := func(key string, f float64) {
		if err == nil && (math.IsInf(f, 0) || math.IsNaN(f)) {
			err = fmt.Errorf("json: unsupported value: %v", f)
		}
		b = appendFloat(append(b, key...), f)
	}
	b = appendString(append(b, `{"target":`...), tr.Target)
	if tr.Lat != nil {
		num(`,"lat":`, *tr.Lat)
	}
	if tr.Lon != nil {
		num(`,"lon":`, *tr.Lon)
	}
	if tr.AreaKm2 != 0 {
		num(`,"area_km2":`, tr.AreaKm2)
	}
	if tr.HeightMs != 0 {
		num(`,"height_ms":`, tr.HeightMs)
	}
	if tr.Constraints != 0 {
		b = strconv.AppendInt(append(b, `,"constraints":`...), int64(tr.Constraints), 10)
	}
	if tr.EmptyRegion {
		b = append(b, `,"empty_region":true`...)
	}
	if tr.Cached {
		b = append(b, `,"cached":true`...)
	}
	if tr.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if tr.ElapsedMs != 0 {
		num(`,"elapsed_ms":`, tr.ElapsedMs)
	}
	if tr.Error != "" {
		b = appendString(append(b, `,"error":`...), tr.Error)
	}
	b = strconv.AppendUint(append(b, `,"epoch":`...), tr.Epoch, 10)
	if tr.Provenance != nil && err == nil {
		var p []byte
		p, err = json.Marshal(tr.Provenance)
		b = append(append(b, `,"provenance":`...), p...)
	}
	if err != nil {
		return b[:n], err
	}
	return append(b, '}', '\n'), nil
}

// appendFloat formats f as encoding/json does: as ES6 does, 'f' unless
// the magnitude is below 1e-6 or at least 1e21, with no zero padding in
// the exponent.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString quotes s as encoding/json does with HTML escaping on:
// control bytes, <, > and & as \u00XX (but \b \f \n \r \t), invalid
// UTF-8 as �, and U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			esc := ""
			switch {
			case r == utf8.RuneError && size == 1:
				esc = "\\ufffd"
			case r == 0x2028 || r == 0x2029:
				esc = "\\u202" + string(rune('0'+r-0x2020))
			}
			if esc != "" {
				b = append(append(b, s[start:i]...), esc...)
				start = i + size
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		if j := strings.IndexByte("\"\\\b\f\n\r\t", c); j >= 0 {
			b = append(b, '\\', "\"\\bfnrt"[j])
		} else {
			b = append(b, '\\', 'u', '0', '0', "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xF])
		}
		i++
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
