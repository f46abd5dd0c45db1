pub struct Callbacks {
    pub on_event: Option<unsafe extern "C" fn(i32)>,
    pub count: i32,
}
pub fn fire(cb: Option<unsafe extern "C" fn(i32)>, n: i32) -> i32 {
    let total = n + 1;
    let _ = cb;
    total
}
pub fn read(p: *const i32) -> i32 {
    let v = unsafe { *p };
    v
}
