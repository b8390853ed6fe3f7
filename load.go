package xplace

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xplace/internal/bookshelf"
	"xplace/internal/lefdef"
)

// LoadOption configures Load.
type LoadOption func(*loadConfig)

type loadConfig struct {
	lefPath string
}

// WithLEF names the LEF library file to parse when Load encounters a DEF
// design.
func WithLEF(path string) LoadOption {
	return func(c *loadConfig) { c.lefPath = path }
}

// Load reads a design from src, autodetecting the format. It is the one
// design reader of the public API:
//
//   - "design.aux" (bookshelf) loads the whole bookshelf bundle the .aux
//     names; any other extension with bookshelf .aux contents also works.
//   - "design.def" loads a DEF design; the LEF cell library must come from
//     WithLEF.
//
// Detection is by extension first (.aux, .def), then by content sniffing
// for extensionless or unconventional names: a DEF file starts with
// VERSION/DESIGN/NAMESCASESENSITIVE statements, a bookshelf .aux carries a
// "RowBasedPlacement : ..." line. A .lef path is rejected with a pointer
// to WithLEF, since a library alone is not a design.
func Load(src string, opts ...LoadOption) (*Design, error) {
	var cfg loadConfig
	for _, o := range opts {
		o(&cfg)
	}
	switch strings.ToLower(filepath.Ext(src)) {
	case ".aux":
		return bookshelf.ReadAux(src)
	case ".def":
		return loadDEF(src, cfg)
	case ".lef":
		return nil, fmt.Errorf("xplace: %s is a LEF library, not a design; name it with WithLEF when loading a DEF design", src)
	}
	head, err := readHead(src, 4096)
	if err != nil {
		return nil, fmt.Errorf("xplace: load %s: %w", src, err)
	}
	switch sniffFormat(head) {
	case "def":
		return loadDEF(src, cfg)
	case "aux":
		return bookshelf.ReadAux(src)
	}
	return nil, fmt.Errorf("xplace: cannot detect the format of %s (want a bookshelf .aux or a DEF file)", src)
}

// loadLEF parses the LEF cell library at path.
func loadLEF(path string) (*LEFLibrary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xplace: load LEF: %w", err)
	}
	defer f.Close()
	return lefdef.ParseLEF(bufio.NewReader(f))
}

func loadDEF(src string, cfg loadConfig) (*Design, error) {
	if cfg.lefPath == "" {
		return nil, fmt.Errorf("xplace: %s is a DEF design and needs a LEF library: pass WithLEF(path)", src)
	}
	lib, err := loadLEF(cfg.lefPath)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(src)
	if err != nil {
		return nil, fmt.Errorf("xplace: load DEF: %w", err)
	}
	defer f.Close()
	return lefdef.ParseDEF(bufio.NewReader(f), lib)
}

func readHead(path string, n int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	m, err := f.Read(buf)
	if m == 0 && err != nil {
		return nil, err
	}
	return buf[:m], nil
}

// sniffFormat classifies file head bytes as "def", "aux" or "".
func sniffFormat(head []byte) string {
	sc := bufio.NewScanner(strings.NewReader(string(head)))
	for lines := 0; sc.Scan() && lines < 50; lines++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "VERSION", "DESIGN", "NAMESCASESENSITIVE", "DIVIDERCHAR", "BUSBITCHARS", "UNITS":
			return "def"
		}
		if strings.EqualFold(fields[0], "RowBasedPlacement") {
			return "aux"
		}
	}
	return ""
}
