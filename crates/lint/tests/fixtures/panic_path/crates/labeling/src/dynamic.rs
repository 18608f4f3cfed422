//! Outside the scan list: the panic-path pass never reads this file.

pub fn read(x: Option<u32>) -> u32 {
    x.unwrap()
}
