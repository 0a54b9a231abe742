package core

import (
	"hydra/internal/bus"
	"hydra/internal/device"
	"hydra/internal/objfile"
)

// LoaderKind selects one of §4.2's two dynamic-loading strategies.
type LoaderKind int

// Loader kinds.
const (
	// LoaderHostLink performs linking at the host: it calls the device's
	// AllocateOffcodeMemory, generates the link against the returned
	// address and the firmware exports, and transfers the placed image.
	// The device's loader "will merely need to initialize the Offcode and
	// execute it". This is the paper's proof-of-concept NIC loader.
	LoaderHostLink LoaderKind = iota
	// LoaderDeviceLink hands the raw object to the device and lets a
	// device-resident loader resolve relocations — "quite expensive in
	// terms of device resources" but requiring no host-side tooling.
	LoaderDeviceLink
)

func (k LoaderKind) String() string {
	if k == LoaderDeviceLink {
		return "device-link"
	}
	return "host-link"
}

// Loader installs an Offcode binary on a device. The result arrives via k
// because transfer and device work take simulated time. devBytes reports
// the total device-local memory the load allocated — the image plus any
// loader-private staging (device-link holds the raw object too) — so
// teardown can return exactly what was taken.
type Loader interface {
	Load(d *device.Device, obj *objfile.Object, k func(addr uint64, size, devBytes int, err error))
}

// hostLinkLoader: link on the host, ship the placed image.
type hostLinkLoader struct{ rt *Runtime }

func (l *hostLinkLoader) Load(d *device.Device, obj *objfile.Object, k func(uint64, int, int, error)) {
	// 1. Size calculation + AllocateOffcodeMemory on the device, reached
	//    through the device runtime's OOB path (small control exchange).
	// devBytes is measured as the MemUsed delta so alignment padding is
	// returned at teardown too.
	memBefore := d.MemUsed()
	addr, err := d.AllocMem(obj.Size())
	if err != nil {
		k(0, 0, d.MemUsed()-memBefore, err)
		return
	}
	devBytes := d.MemUsed() - memBefore
	// 2. Host-side link against the allocated base and firmware exports.
	img, err := objfile.Link(obj, addr, d.Exports())
	if err != nil {
		k(0, 0, devBytes, err)
		return
	}
	// Host CPU pays for the relocation pass (cheap) as kernel work.
	linkCycles := uint64(3000 + 200*len(obj.Relocs))
	task := l.rt.host.NewTask("loader:" + obj.Name)
	task.Syscall(linkCycles, func() {
		// 3. Transfer the placed image over the bus and store it.
		l.rt.bus.Transfer(bus.MainMemory, d.Agent(), len(img), func() {
			if err := d.WriteMem(addr, img); err != nil {
				k(0, 0, devBytes, err)
				return
			}
			// 4. Device-side "initialize and execute": trivial fixed cost.
			d.Exec(5_000, func() { k(addr, len(img), devBytes, nil) })
		})
	})
}

// deviceLinkLoader: ship the raw object, link on the device.
type deviceLinkLoader struct{ rt *Runtime }

func (l *deviceLinkLoader) Load(d *device.Device, obj *objfile.Object, k func(uint64, int, int, error)) {
	encoded := obj.Encode() // raw object: bigger than the placed image
	l.rt.bus.Transfer(bus.MainMemory, d.Agent(), len(encoded), func() {
		// The device must hold the object *and* the placed image while
		// linking — the resource cost the paper calls "quite expensive".
		// devBytes is measured as the MemUsed delta (staging + image +
		// alignment padding) so teardown returns exactly what was taken.
		memBefore := d.MemUsed()
		stage, err := d.AllocMem(len(encoded))
		if err != nil {
			k(0, 0, d.MemUsed()-memBefore, err)
			return
		}
		if err := d.WriteMem(stage, encoded); err != nil {
			k(0, 0, d.MemUsed()-memBefore, err)
			return
		}
		addr, err := d.AllocMem(obj.Size())
		if err != nil {
			k(0, 0, d.MemUsed()-memBefore, err)
			return
		}
		devBytes := d.MemUsed() - memBefore
		// Device-side parse + relocation: slow embedded core.
		linkCycles := uint64(20_000 + 2_000*len(obj.Relocs) + 10*len(encoded))
		d.Exec(linkCycles, func() {
			img, err := objfile.Link(obj, addr, d.Exports())
			if err != nil {
				k(0, 0, devBytes, err)
				return
			}
			if err := d.WriteMem(addr, img); err != nil {
				k(0, 0, devBytes, err)
				return
			}
			d.Exec(5_000, func() { k(addr, len(img), devBytes, nil) })
		})
	})
}
