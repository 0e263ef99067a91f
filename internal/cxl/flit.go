package cxl

// Flit-level framing. CXL moves data in 68-byte flits: 64 bytes of slots
// plus a 2-byte CRC and 2-byte header — which is where the paper's "CXL
// consumes ~94.3% of PCIe bandwidth" comes from (64/68 = 94.1%; the quoted
// 94.3% includes protocol-level accounting). The retry engine prices a
// packet's corruption probability per flit.
const (
	// FlitBytes is the on-wire flit size.
	FlitBytes = 68
	// FlitPayloadBytes is the usable slot capacity per flit.
	FlitPayloadBytes = 64
)
