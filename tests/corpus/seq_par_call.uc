// expect:
// A `par` arm may call a user function when every argument is a
// front-end scalar (here the `seq` element): the call runs on the front
// end, once per step, and its result is broadcast.
#define N 8
index_set I:i = {0..N-1}, K:k = {0..3};
int a[N], calls;
int weight(int step, int scale) {
    int w, t;
    w = 0;
    for (t = 0; t <= step; t = t + 1) w = w + scale * t;
    calls = calls + 1;
    return w;
}
main() {
    par (I) a[i] = i;
    seq (K)
        par (I) st (i % 2 == k % 2) a[i] = a[i] + weight(k, 3);
}
