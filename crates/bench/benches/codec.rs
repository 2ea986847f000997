//! Codec throughput — the serialization boundary every aggregator crosses.
//! Bulk `f64` slices (the hot path) vs element-wise encoding, plus decode,
//! plus the frame checksum and the epoch wrap/unwrap every collective
//! segment goes through on each ring hop.

use sparker_bench::micro::Bench;
use sparker_net::bytebuf::ByteBuf;
use sparker_net::codec::{Decoder, Encoder, F64Array, Payload};
use sparker_net::{epoch, hash, pool};

fn main() {
    let mut b = Bench::new("codec").samples(20);
    for &elems in &[1024usize, 64 * 1024] {
        let data: Vec<f64> = (0..elems).map(|i| i as f64 * 0.5).collect();
        let bytes = Some((elems * 8) as u64);
        b.run(&format!("encode_bulk/{elems}"), bytes, || {
            let mut enc = Encoder::with_capacity(data.len() * 8 + 8);
            enc.put_f64_slice(&data);
            enc.finish()
        });
        b.run(&format!("encode_elementwise/{elems}"), bytes, || {
            let mut enc = Encoder::with_capacity(data.len() * 8 + 8);
            enc.put_usize(data.len());
            for &x in &data {
                enc.put_f64(x);
            }
            enc.finish()
        });
        let frame = F64Array(data.clone()).to_frame();
        b.run(&format!("decode_bulk/{elems}"), bytes, || {
            let mut dec = Decoder::new(frame.clone());
            dec.get_f64_vec().unwrap()
        });
    }

    for &(label, len) in &[("64KiB", 64usize << 10), ("2MiB", 2 << 20)] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        b.run(&format!("frame_hash/{label}"), Some(len as u64), || hash::frame_hash(&data));
    }
    let payload = ByteBuf::from((0..2usize << 20).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>());
    b.run("epoch_wrap_unwrap/2MiB", Some(payload.len() as u64), || {
        let (_, _, body) = epoch::unwrap(epoch::wrap(7, 1, &payload)).unwrap();
        let n = body.len();
        pool::global().recycle_frame(body);
        n
    });
    b.finish().unwrap();
}
