extern "C" {
    pub unsafe fn x();
}
pub trait Device {
    unsafe fn reset(&mut self);
    fn id(&self) -> u32;
}
pub fn safe_after(v: i32) -> i32 {
    let w = v + 1;
    w
}
pub unsafe fn bytes(p: *const u8) -> [u8; 4] {
    [*p, 0, 0, 0]
}
