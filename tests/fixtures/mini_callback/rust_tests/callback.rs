use mini_callback::callback::{apply_cb, handler, run_handler, use_twice};

extern "C" fn negate(v: i32) -> i32 {
    -v
}

#[test]
fn callbacks_through_member_and_parameter() {
    assert_eq!(use_twice(5), 11);
    assert_eq!(apply_cb(None, 4), 4);
    assert_eq!(apply_cb(Some(negate), 4), -4);
    assert_eq!(run_handler(handler { cb: Some(negate), tag: 2 }, 3), -1);
}
