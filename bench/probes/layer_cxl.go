package main

import (
	"teco/internal/cxl"
	"teco/internal/mem"
	"teco/internal/sim"
)

// cxlGroup times the timed link's flow fast path, the packet codec round
// trip the functional replay runs per line, and the flit CRC.
var cxlGroup = group{"cxl", []string{"cxl.sendflow_ns", "cxl.packet_codec_ns", "cxl.crc16_mb_per_s"}, func(c *ctx) (map[string]float64, error) {
	const sends, packets, crcBytes = 1 << 18, 1 << 17, 1 << 20
	link := cxl.NewLink(sim.New(), 0, 0)
	flow := medianTime(9, func() {
		for i := 0; i < sends; i++ {
			link.SendFlow(sim.Time(i), mem.LineSize, 0, mem.LineSize, false)
		}
	})
	pkt := cxl.Packet{Addr: 42, Aggregated: true, DirtyBytes: 2, Payload: make([]byte, mem.LineSize/2)}
	var wire []byte
	var decoded cxl.Packet
	var codecErr error
	codec := medianTime(9, func() {
		for i := 0; i < packets; i++ {
			var err error
			if wire, err = pkt.AppendEncode(wire[:0]); err != nil {
				codecErr = err
			}
			if err := cxl.DecodeInto(&decoded, wire); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return nil, codecErr
	}
	buf := make([]byte, crcBytes)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	var crc uint16
	crcTime := medianTime(9, func() { crc = cxl.UpdateCRC16(crc, buf) })
	return map[string]float64{
		"cxl.sendflow_ns":     float64(flow) / sends,
		"cxl.packet_codec_ns": float64(codec) / packets,
		"cxl.crc16_mb_per_s":  crcBytes / 1e6 / crcTime.Seconds(),
	}, nil
}}
