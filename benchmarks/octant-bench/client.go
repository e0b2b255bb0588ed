package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one persistent HTTP/1.1 client connection. The load generator
// writes requests by hand and reads responses with the standard parser,
// so the client's share of a round trip stays small and constant next to
// the server work being measured.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	host string
	out  []byte
	in   []byte
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 16<<10), host: addr}, nil
}

func (c *conn) close() { _ = c.nc.Close() }

// post sends one JSON POST and reads the whole response body. The
// returned slice is reused by the next call. When firstByte is non-nil it
// receives the time the first body bytes arrived, which for an NDJSON
// stream is the first result line.
func (c *conn) post(path string, body []byte, firstByte *time.Time) (int, []byte, error) {
	b := append(c.out[:0], "POST "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.out = b
	if _, err := c.nc.Write(b); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	in := c.in[:0]
	for {
		if len(in) == cap(in) {
			in = append(in, 0)[:len(in)]
		}
		n, err := resp.Body.Read(in[len(in):cap(in)])
		if n > 0 && firstByte != nil && len(in) == 0 {
			*firstByte = time.Now()
		}
		in = in[:len(in)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			c.in = in
			return resp.StatusCode, nil, err
		}
	}
	c.in = in
	return resp.StatusCode, in, nil
}
