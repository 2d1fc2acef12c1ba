/* A loop condition that traps only when it is evaluated again, after the
 * body has run: the error must name the `while` that owns the division,
 * not the body's last statement (the last one to start before the trap). */
int x, k;
main() {
    x = 2;
    k = 0;
    while (10 / x > 0) {
        k = k + 1;
        x = x - 1;
    }
}
