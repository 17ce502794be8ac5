"""Attention-recurrent memorability regression at desk scale."""

__version__ = "0.1.0"
