//! Known-bad panic sites in the label decoder the servers read through.

pub fn bare_expect(x: Option<u32>) -> u32 {
    x.expect("label carries an id")
}

pub fn tagged_expect(x: Option<u32>) -> u32 {
    x.expect("caller checked") // lint: panic-ok(fixture: the caller checked)
}
