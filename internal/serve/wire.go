package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// The localize wire has one fixed schema and one codec. DecodeLocalize
// parses a canonical body (canonicalRequest) by hand, without reflection,
// and hands every other body to json.Decoder with DisallowUnknownFields:
// what it accepts, how it decodes it and every refusal's text are
// encoding/json's. AppendTargetResultV2 writes the bytes json.Encoder
// writes. FuzzDecodeV2 and FuzzAppendTargetResultV2 hold both to
// encoding/json.

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
		var ok bool
		if req, ok = canonicalRequest(buf); ok && rerr == nil {
			return nil
		}
		// Anything else is encoding/json's to judge: the bytes read, then
		// the read's error, as json.Decoder would have met them on the
		// body itself. A decode that stops before that error would have
		// met it draining the body, so it is the verdict then.
		src := io.Reader(bytes.NewReader(buf))
		if rerr != nil {
			src = io.MultiReader(src, errReader{rerr})
		}
		dec := json.NewDecoder(src)
		dec.DisallowUnknownFields()
		fresh := new(LocalizeRequest) // decoding into &req would move req to the heap on every request
		err := dec.Decode(fresh)
		if req = *fresh; err == nil {
			err = rerr
		}
		return err
	})
	putWireBuf(buf)
	if err != nil {
		writeBodyError(w, err, "bad request body")
	}
	return req, err == nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// canonicalRequest decodes data if it is a canonical localize body, as
// encoding/json would, and reports whether it was. A canonical body is
// one JSON object, whitespace allowed between tokens, in which every key
// is spelled exactly as its field's tag and appears at most once, the
// only null is "options":null (what a client marshals without options),
// every string is printable ASCII without escapes, and every number
// parses into its field. On such a body none of encoding/json's rules
// for other bodies (case folding, UTF-8 coercion, duplicate keys, nulls,
// range errors) comes into play, so this decoder needs none of them.
func canonicalRequest(data []byte) (LocalizeRequest, bool) {
	var req LocalizeRequest
	c := canon{data: data}
	var seen fieldSet
	ok := c.object(func(key []byte) bool {
		switch string(key) {
		case "target":
			return seen.once(0) && c.str(&req.Target)
		case "targets":
			return seen.once(1) && c.strs(&req.Targets)
		case "options":
			if !seen.once(2) {
				return false
			}
			if c.literal("null") {
				return true
			}
			req.Options = new(WireOptions)
			return c.options(req.Options)
		}
		return false
	})
	if c.ws(); !ok || c.pos != len(data) {
		return LocalizeRequest{}, false
	}
	return req, true
}

// fieldSet is the fields of one object a canonical body has set.
type fieldSet uint

// once marks field i set and reports whether it was not already.
func (s *fieldSet) once(i uint) bool {
	ok := *s&(1<<i) == 0
	*s |= 1 << i
	return ok
}

func (c *canon) options(o *WireOptions) bool {
	var seen fieldSet
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "disable":
			return seen.once(0) && c.strs(&o.Disable)
		case "weights":
			if !seen.once(1) {
				return false
			}
			o.Weights = map[string]float64{}
			return c.object(func(key []byte) bool {
				if _, dup := o.Weights[string(key)]; dup {
					return false
				}
				var f float64
				ok := c.float(&f)
				o.Weights[string(key)] = f
				return ok
			})
		case "min_area_km2":
			return seen.once(2) && c.float(&o.MinAreaKm2)
		case "fine_cell_km":
			return seen.once(3) && c.float(&o.FineCellKm)
		case "neg_height_percentile":
			return seen.once(4) && c.float(&o.NegHeightPercentile)
		case "min_landmarks":
			return seen.once(5) && c.int(&o.MinLandmarks)
		case "explain":
			o.Explain = c.literal("true")
			return seen.once(6) && (o.Explain || c.literal("false"))
		case "hints":
			if !seen.once(7) {
				return false
			}
			o.Hints = []WireHint{}
			return c.array(func() bool {
				o.Hints = append(o.Hints, WireHint{})
				return c.hint(&o.Hints[len(o.Hints)-1])
			})
		}
		return false
	})
}

func (c *canon) hint(h *WireHint) bool {
	var seen fieldSet
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "lat":
			return seen.once(0) && c.float(&h.Lat)
		case "lon":
			return seen.once(1) && c.float(&h.Lon)
		case "radius_km":
			return seen.once(2) && c.float(&h.RadiusKm)
		case "weight":
			return seen.once(3) && c.float(&h.Weight)
		case "label":
			return seen.once(4) && c.str(&h.Label)
		}
		return false
	})
}

// canon is one pass over a body that is canonical or is refused.
type canon struct {
	data []byte
	pos  int
}

func (c *canon) ws() {
	for c.pos < len(c.data) && (c.data[c.pos] == ' ' || c.data[c.pos] == '\t' || c.data[c.pos] == '\n' || c.data[c.pos] == '\r') {
		c.pos++
	}
}

// skip steps past b if it is the next byte.
func (c *canon) skip(b byte) bool {
	if c.pos < len(c.data) && c.data[c.pos] == b {
		c.pos++
		return true
	}
	return false
}

// token steps past whitespace and then b if it is next.
func (c *canon) token(b byte) bool {
	c.ws()
	return c.skip(b)
}

// literal steps past whitespace and then word if it is next.
func (c *canon) literal(word string) bool {
	c.ws()
	if !bytes.HasPrefix(c.data[c.pos:], []byte(word)) {
		return false
	}
	c.pos += len(word)
	return true
}

// object steps over an object, handing each key to member to decode its
// value.
func (c *canon) object(member func(key []byte) bool) bool {
	if !c.token('{') {
		return false
	}
	if c.token('}') {
		return true
	}
	for {
		key, ok := c.raw()
		if !ok || !c.token(':') || !member(key) {
			return false
		}
		if c.token('}') {
			return true
		}
		if !c.token(',') {
			return false
		}
	}
}

// array steps over an array, calling elem to decode each element.
func (c *canon) array(elem func() bool) bool {
	if !c.token('[') {
		return false
	}
	if c.token(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if c.token(']') {
			return true
		}
		if !c.token(',') {
			return false
		}
	}
}

// raw steps over a string of printable ASCII without escapes and returns
// its contents.
func (c *canon) raw() ([]byte, bool) {
	if !c.token('"') {
		return nil, false
	}
	for start := c.pos; c.pos < len(c.data); c.pos++ {
		switch b := c.data[c.pos]; {
		case b == '"':
			c.pos++
			return c.data[start : c.pos-1], true
		case b < ' ' || b > '~' || b == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (c *canon) str(dst *string) bool {
	s, ok := c.raw()
	*dst = string(s)
	return ok
}

// strs decodes an array of strings; an empty one is empty, not nil.
func (c *canon) strs(dst *[]string) bool {
	*dst = []string{}
	return c.array(func() bool {
		s, ok := c.raw()
		*dst = append(*dst, string(s))
		return ok
	})
}

// number steps over a number in JSON's grammar and returns it, or nil.
func (c *canon) number() []byte {
	c.ws()
	start := c.pos
	c.skip('-')
	if !c.skip('0') && !c.digits() {
		return nil
	}
	if c.skip('.') && !c.digits() {
		return nil
	}
	if c.skip('e') || c.skip('E') {
		if !c.skip('+') {
			c.skip('-')
		}
		if !c.digits() {
			return nil
		}
	}
	return c.data[start:c.pos]
}

// digits steps over a run of at least one digit.
func (c *canon) digits() bool {
	start := c.pos
	for c.pos < len(c.data) && c.data[c.pos]-'0' < 10 {
		c.pos++
	}
	return c.pos > start
}

func (c *canon) float(dst *float64) bool {
	num := c.number()
	f, err := strconv.ParseFloat(string(num), 64)
	*dst = f
	return num != nil && err == nil
}

func (c *canon) int(dst *int) bool {
	num := c.number()
	n, err := strconv.Atoi(string(num))
	*dst = n
	return num != nil && err == nil
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

// appendString quotes s as encoding/json does with HTML escaping on: a
// string of printable ASCII other than " \ < > & needs no escape and is
// appended as it is; any other goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
