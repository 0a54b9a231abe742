// Package guid defines the globally unique identifiers HYDRA uses to name
// Offcodes and interfaces. The paper's ODF files carry small decimal GUIDs
// (e.g. 7070714 for hydra.net.utils.Socket); we keep the same representation.
package guid

import (
	"fmt"
	"strconv"
)

// GUID identifies an Offcode or an Offcode interface across the whole system.
// The zero GUID is invalid.
type GUID uint64

// Nil is the invalid zero GUID.
const Nil GUID = 0

// Parse converts the decimal or 0x-prefixed hexadecimal text used in ODF
// files into a GUID.
func Parse(s string) (GUID, error) {
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return Nil, fmt.Errorf("guid: parse %q: %w", s, err)
	}
	if v == 0 {
		return Nil, fmt.Errorf("guid: zero GUID is reserved")
	}
	return GUID(v), nil
}

func (g GUID) String() string { return strconv.FormatUint(uint64(g), 10) }

// IsValid reports whether g is usable (non-zero).
func (g GUID) IsValid() bool { return g != Nil }

// Well-known interface GUIDs used by the runtime's pseudo Offcodes. User
// Offcodes allocate their own from the ODF.
const (
	IIDOffcode          GUID = 0x1001 // IOffcode, implemented by every Offcode
	IIDRuntime          GUID = 0x1002 // hydra.Runtime pseudo Offcode
	IIDHeap             GUID = 0x1003 // hydra.Heap pseudo Offcode
	IIDChannelExecutive GUID = 0x1004 // hydra.ChannelExecutive pseudo Offcode
	// IIDHealthMonitor is the base GUID of the per-device heartbeat pseudo
	// Offcodes (hydra.Health.<device>); the i-th monitored device gets
	// IIDHealthMonitor + i. The range is far above the small decimal GUIDs
	// user ODFs carry.
	IIDHealthMonitor GUID = 0x48454C54_0000 // "HELT"
)
