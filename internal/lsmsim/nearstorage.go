package lsmsim

import (
	"time"

	"fcae/internal/model"
)

// Near-storage placement (paper §VII-E): "another recent trend is near
// storage computing ... the FPGA is placed in SSD as an embedded
// controller. In this architecture, FPGA can fully utilize the internal
// bandwidth of SSD, so that the redundant data transfer is minimized."
// The paper leaves this as future work; this file implements the model so
// the placement trade-off can be explored: the engine reads and writes
// table data over the device's internal channels (no PCIe DMA, no host
// staging), at the SSD's internal aggregate bandwidth.

// Placement selects where the engine sits relative to the data.
type Placement int

const (
	// PlacementPCIe is the paper's evaluated design: a PCIe-attached card
	// with its own DRAM; inputs and outputs cross the link.
	PlacementPCIe Placement = iota
	// PlacementNearStorage embeds the engine in the SSD controller:
	// table data moves over the device's internal channels only.
	PlacementNearStorage
)

func (p Placement) String() string {
	switch p {
	case PlacementPCIe:
		return "pcie"
	case PlacementNearStorage:
		return "near-storage"
	}
	return "unknown"
}

// SSD internal-channel model for the near-storage placement. Open-channel
// style devices expose several independent channels whose aggregate
// bandwidth exceeds the external interface (the FlashKV observation the
// paper cites).
const (
	// SSDInternalBandwidth is the aggregate internal channel bandwidth in
	// bytes/second.
	SSDInternalBandwidth = 3.2e9
	// SSDInternalLatency is the per-operation internal latency.
	SSDInternalLatency = 60 * time.Microsecond
)

// nearStorageMoveTime models moving n bytes across the device's internal
// channels.
func nearStorageMoveTime(n int64) time.Duration {
	return SSDInternalLatency + time.Duration(float64(n)/SSDInternalBandwidth*float64(time.Second))
}

// compactionDeviceTime returns the engine-side time of one offloaded job
// for the configured placement: data staging plus the kernel.
func (s *state) compactionDeviceTime(inBytes, outBytes int64, kernel time.Duration) (total, transfer time.Duration) {
	switch s.cfg.Placement {
	case PlacementNearStorage:
		// No disk round trip through the host, no PCIe: inputs stream
		// from flash into the embedded engine and outputs back.
		move := nearStorageMoveTime(inBytes) + nearStorageMoveTime(outBytes)
		return move + kernel, move
	default:
		// Host reads tables from the device, DMAs them to card DRAM,
		// fetches results and writes them back (paper §IV steps 3-8).
		disk := model.DiskReadTime(inBytes) + model.DiskWriteTime(outBytes)
		pcie := model.PCIeTransferTime(inBytes) + model.PCIeTransferTime(outBytes)
		return disk + pcie + kernel, pcie
	}
}
