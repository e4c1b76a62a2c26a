package client

import (
	"strconv"
	"strings"
)

// scanDepth bounds the nesting scanValue follows on the one-scan path.
const scanDepth = 64

// scanValue reads the JSON value at i, after any whitespace, and returns
// the offset just past it; -1 if there is none or it nests past depth. It
// allocates nothing and accepts only what json.Valid accepts (FuzzScanValue).
func scanValue(data []byte, i, depth int) int {
	if i = skipSpace(data, i); i < 0 || i == len(data) {
		return -1
	}
	switch c := data[i]; c {
	case '{', '[': // '}' and ']' are two past them
		if i = skipSpace(data, i+1); i < len(data) && data[i] == c+2 {
			return i + 1
		}
		for depth > 0 {
			if c == '{' { // a member's key and colon first
				if i = skipSpace(data, scanString(data, i)); i < 0 || i == len(data) || data[i] != ':' {
					return -1
				}
				i++
			}
			if i = skipSpace(data, scanValue(data, i, depth-1)); i < 0 || i == len(data) {
				return -1
			}
			if data[i] == c+2 {
				return i + 1
			}
			if data[i] != ',' {
				return -1
			}
			i = skipSpace(data, i+1)
		}
		return -1
	case '"':
		return scanString(data, i)
	case 't', 'f', 'n':
		for _, lit := range []string{"true", "false", "null"} {
			if len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit {
				return i + len(lit)
			}
		}
		return -1
	}
	// A number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
	if data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		i = digits(data, i)
	}
	if i > 0 && i < len(data) && data[i] == '.' {
		i = digits(data, i+1)
	}
	if i > 0 && i < len(data) && data[i]|0x20 == 'e' {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		i = digits(data, i)
	}
	return i
}

// scanString reads the string whose quote is at i; -1 if there is none.
func scanString(data []byte, i int) int {
	if i < 0 || i == len(data) || data[i] != '"' {
		return -1
	}
	for i++; i < len(data); i++ {
		switch c := data[i]; {
		case c >= 0x20 && c != '"' && c != '\\': // as it stands (past ASCII, as json.Valid takes it)
		case c == '"':
			return i + 1
		case c != '\\' || i+1 == len(data): // a control character, or an escape cut short
			return -1
		case data[i+1] == 'u' && i+5 < len(data) && hex4(data[i+2:i+6]):
			i += 5
		case strings.IndexByte(`"\/bfnrt`, data[i+1]) < 0:
			return -1
		default:
			i++
		}
	}
	return -1
}

// hex4 reports whether h is the four hex digits of a \u escape.
func hex4(h []byte) bool { _, err := strconv.ParseUint(string(h), 16, 16); return err == nil }

// digits reads one or more decimal digits at i; -1 if there are none.
func digits(data []byte, i int) int {
	j := i
	for j < len(data) && '0' <= data[j] && data[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// skipSpace passes JSON's insignificant whitespace from i (and -1 on).
func skipSpace(data []byte, i int) int {
	for i >= 0 && i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}
