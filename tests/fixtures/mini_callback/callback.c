typedef int (*cb_t)(int);

struct handler {
    cb_t cb;
    int tag;
};

static int twice(int v) {
    return v * 2;
}

int apply_cb(cb_t cb, int v) {
    if (cb == 0) {
        return v;
    }
    return cb(v);
}

int run_handler(struct handler h, int v) {
    return apply_cb(h.cb, v) + h.tag;
}

int use_twice(int v) {
    struct handler h = { twice, 1 };
    return run_handler(h, v);
}
