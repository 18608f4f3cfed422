//! Known-bad protocol constants for the wire-invariants fixture.

pub const VERSION: u8 = 2;
// One version only: there is no lower bound to check.

pub mod opcode {
    pub const HELLO: u8 = 0x00;
    pub const PING: u8 = 0x01;
    pub const QUERY: u8 = 0x02;
    pub const DUPL: u8 = 0x02;
    pub const HELLO_OK: u8 = 0x80;
    pub const PONG: u8 = 0x81;
    pub const STRAY: u8 = 0x8F;
}
