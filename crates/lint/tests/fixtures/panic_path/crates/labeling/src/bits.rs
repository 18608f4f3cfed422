//! Known-bad panic sites in the bit reader every served decoder reads through.

pub fn read(x: Option<u64>) -> u64 {
    x.unwrap()
}

pub fn tagged_expect(x: Option<u64>) -> u64 {
    x.expect("caller checked") // lint: panic-ok(fixture: the caller checked)
}
