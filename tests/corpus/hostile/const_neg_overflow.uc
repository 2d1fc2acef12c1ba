/* Attack: `-(i64::MIN)` as an index-set bound. Host-side negation
 * overflows and aborts; wrapping negation leaves `i64::MIN`, so the range
 * `{0 .. i64::MIN}` is reversed and sema says so. */
index_set I:i = {0 .. -(0 - INF - 1)};
int a[4];

main() {
    par (I) a[i] = i;
}
