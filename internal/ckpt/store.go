package ckpt

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrNotFound is returned by Store.Load for a key with no stored
// checkpoint.
var ErrNotFound = errors.New("ckpt: checkpoint not found")

// Key builds the content-addressed store key for a trained system:
// (algorithm, hash of the training inputs, seed, train steps, format
// version); core.TrainingKey is its one caller. With the version in the
// key, a checkpoint a build of an older format stored is never looked up:
// it is a miss, and the system retrains, rather than a file that Load
// rejects.
func Key(algorithm, configHash string, seed int64, trainSteps int) string {
	h := configHash
	if len(h) > 16 {
		h = h[:16]
	}
	return fmt.Sprintf("%s-%s-s%d-n%d-%s", sanitize(algorithm), h, seed, trainSteps, formatVersion)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// Store is an on-disk checkpoint cache: one file per key, written
// atomically so concurrent writers of the same key never expose a torn
// file.
type Store struct {
	dir string
}

// OpenStore creates (if needed) and opens a checkpoint directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: create store: %w", err)
	}
	return &Store{dir: dir}, nil
}

const fileExt = ".ckpt" // ends every stored checkpoint's file name

// Path returns the file a key is stored at.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, sanitize(key)+fileExt)
}

// Load reads and validates the checkpoint stored under key, or ErrNotFound,
// keeping only what deploys it (see ReadActing).
func (s *Store) Load(key string) (c *Checkpoint, err error) {
	f, err := os.Open(s.Path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("ckpt: load %s: %w", key, err)
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err == nil {
		c, err = ReadActing(f, int(fi.Size()))
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: load %s: %w", key, err)
	}
	return c, nil
}

// Save writes the checkpoint under key atomically (temp file + rename).
func (s *Store) Save(key string, c *Checkpoint) (err error) {
	f, err := os.CreateTemp(s.dir, "."+sanitize(key)+"-*.tmp")
	if err != nil {
		return fmt.Errorf("ckpt: save %s: %w", key, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			_ = os.Remove(tmp)
		}
	}()
	if err = Write(f, c); err != nil {
		_ = f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("ckpt: save %s: %w", key, err)
	}
	if err = os.Rename(tmp, s.Path(key)); err != nil {
		return fmt.Errorf("ckpt: save %s: %w", key, err)
	}
	return nil
}

// Keys lists the stored checkpoint keys, sorted.
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: list store: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, fileExt) {
			continue
		}
		out = append(out, strings.TrimSuffix(name, fileExt))
	}
	sort.Strings(out)
	return out, nil
}
