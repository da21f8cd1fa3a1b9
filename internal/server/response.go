package server

import (
	"bytes"
	"net/http"
)

// ResponseBuffer is an in-memory http.ResponseWriter: httptest's
// recorder without importing a testing package into the serving path.
// It backs read()'s compose-under-lock, flush-after-unlock split, the
// router's in-process backend, and the harness's handler-backed client.
type ResponseBuffer struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

// NewResponseBuffer returns an empty buffer ready to serve into.
func NewResponseBuffer() *ResponseBuffer { return &ResponseBuffer{header: http.Header{}} }

// Header implements http.ResponseWriter.
func (b *ResponseBuffer) Header() http.Header { return b.header }

// WriteHeader implements http.ResponseWriter; the first status wins.
func (b *ResponseBuffer) WriteHeader(c int) {
	if b.code == 0 {
		b.code = c
	}
}

// Write implements http.ResponseWriter.
func (b *ResponseBuffer) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}

// Status is the response status (200 when the handler never set one).
func (b *ResponseBuffer) Status() int {
	if b.code == 0 {
		return http.StatusOK
	}
	return b.code
}

// Bytes is the response body written so far.
func (b *ResponseBuffer) Bytes() []byte { return b.body.Bytes() }

// StatusWriter passes a response through to the wrapped writer and
// captures its status, so a request span can be annotated (and
// error-marked on 5xx) after the handler returns.
type StatusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader implements http.ResponseWriter.
func (s *StatusWriter) WriteHeader(c int) {
	if s.code == 0 {
		s.code = c
	}
	s.ResponseWriter.WriteHeader(c)
}

// Write implements http.ResponseWriter.
func (s *StatusWriter) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

// Status is the response status (200 when the handler never set one).
func (s *StatusWriter) Status() int {
	if s.code == 0 {
		return http.StatusOK
	}
	return s.code
}
