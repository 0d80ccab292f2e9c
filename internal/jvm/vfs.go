package jvm

import (
	"fmt"
	"sync"

	"dvm/internal/bytecode"
)

// descCache memoizes method descriptor parses; linking hits the same
// descriptors constantly.
var descCache sync.Map // string -> bytecode.MethodType

func parseMethodTypeCached(desc string) (bytecode.MethodType, error) {
	if v, ok := descCache.Load(desc); ok {
		return v.(bytecode.MethodType), nil
	}
	mt, err := bytecode.ParseMethodType(desc)
	if err != nil {
		return bytecode.MethodType{}, err
	}
	descCache.Store(desc, mt)
	return mt, nil
}

// VirtualFS is the in-memory filesystem behind java/io. The security
// microbenchmarks of Figure 9 (OpenFile, ReadFile) exercise it, and it
// lets the whole system run hermetically.
type VirtualFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewVirtualFS returns an empty filesystem.
func NewVirtualFS() *VirtualFS {
	return &VirtualFS{files: make(map[string][]byte)}
}

// Write stores a file, replacing any previous contents.
func (fs *VirtualFS) Write(path string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = append([]byte(nil), data...)
}

// Read returns a copy of the file contents.
func (fs *VirtualFS) Read(path string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("vfs: %s: no such file", path)
	}
	return append([]byte(nil), data...), nil
}

// Exists reports whether the path is present.
func (fs *VirtualFS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Append appends data to a file, creating it if needed.
func (fs *VirtualFS) Append(path string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = append(fs.files[path], data...)
}

// Remove deletes a file and reports whether it existed.
func (fs *VirtualFS) Remove(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	delete(fs.files, path)
	return ok
}

// fileHandle is the Native payload of FileInputStream/FileOutputStream
// objects.
type fileHandle struct {
	path string
	data []byte
	pos  int
	fs   *VirtualFS
	out  bool
}
